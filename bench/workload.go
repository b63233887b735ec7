package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"time"

	"ipg/internal/engine"
	"ipg/internal/registry"
)

// Grammars and documents the server is started with and the workloads
// send. Paths are relative to the repository root.
const (
	sdfGrammarPath  = "testdata/SDF.sdf"
	calcGrammarPath = "testdata/CalcDet.bnf"
)

// docPaths are the parse documents, drawn uniformly: 37, 166 and 475
// tokens.
var docPaths = []string{"testdata/exp.sdf", "testdata/Exam.sdf", "testdata/ASF.sdf"}

// editDocPath is the document every edit session holds.
const editDocPath = "testdata/ASF.sdf"

// workload is one traffic mix. Its light phase is either an open loop
// at rate requests per second (with, for churn, one closed-loop writer
// sending a rule update every writerEvery) or one closed-loop client
// pausing think between replies; its saturation phase is always two
// closed-loop clients with no think time.
type workload struct {
	name string
	// grammar is the grammar the workload's reads target, whose table
	// counters the traced run reports.
	grammar string
	// limit is the latency a saturation-phase request must meet to count
	// toward capacity_rps, about five times the saturation p99 measured
	// when the benchmark was defined.
	limit       time.Duration
	rate        float64
	think       time.Duration
	writerEvery time.Duration
	// readKind is the operation kind of the workload's reads, which the
	// peel replays at every layer boundary.
	readKind opKind
}

var workloads = []workload{
	{name: "parse", grammar: "sdf", limit: 25 * time.Millisecond, rate: 300, readKind: kindParse},
	{name: "decode", grammar: "calc", limit: 2500 * time.Microsecond, think: 2 * time.Millisecond, readKind: kindDecode},
	{name: "edit", grammar: "sdf", limit: 5 * time.Millisecond, think: 2 * time.Millisecond, readKind: kindEdit},
	{name: "churn", grammar: "sdf", limit: 25 * time.Millisecond, rate: 200, writerEvery: 100 * time.Millisecond, readKind: kindParse},
}

// sends reports whether the workload sends operations of kind k.
func (w workload) sends(k opKind) bool {
	return k == w.readKind || k == kindUpdate && w.writerEvery > 0
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// churnReadsPerUpdate is the saturation-phase mix of churn: one rule
// update after every 50 reads.
const churnReadsPerUpdate = 50

// keywordsPerClient is how many fresh keywords each churn client cycles
// through; every keyword is taught to the scanner during set-up, so the
// timed phases do not grow the scanner.
const keywordsPerClient = 4

// opKind classifies requests by the path they take through the layers.
type opKind int

const (
	kindParse opKind = iota
	kindDecode
	kindEdit
	kindUpdate
	numKinds
)

func (k opKind) String() string {
	return [...]string{"parse", "decode", "edit", "update"}[k]
}

// op is one request with the check its reply must pass.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte
	// check validates a 2xx reply body against the oracle's answer.
	check func(body []byte) error
}

// stream yields one client's requests in order. A stream belongs to one
// goroutine, except that open-loop streams (parse reads) are stateless
// and their checks may run concurrently.
type stream interface {
	next() op
}

// doc is one parse document with the request that carries it and the
// oracle's verdict.
type doc struct {
	path     string
	text     string
	body     []byte
	accepted bool
	trees    int64
}

// step is one request of a decode episode after the cursor is open: an
// optional restore, one fed terminal, and the accept set the oracle
// expects afterwards (sorted names joined by spaces).
type step struct {
	restore int // -1 = no restore
	feed    string
	pos     int
	accepts string
	close   bool
}

// episode is one decode cursor's life: open at the empty prefix, then
// steps until the sentence may end past the target length.
type episode struct {
	open  string // accept set at the empty prefix
	steps []step
}

// edit is one touch edit: replace the token at position at by its own
// text, which leaves the document unchanged.
type edit struct {
	at   int
	text string
	body []byte
}

// inputs is everything a run sends, generated from its seed, with the
// oracle's expected answers.
type inputs struct {
	seed     uint64
	docs     []doc
	episodes []episode
	// edits are the touch edits a caret may make, one per position whose
	// text scans back to the same single token; editTokens is the
	// document's length, which every edit keeps.
	edits      []edit
	editText   string
	editTokens int
	// nonterminals are the SDF sorts a churn rule may extend.
	nonterminals []string
}

// oracle answers every request independently of the engines under
// test: both grammars are registered on the table-free Earley backend.
type oracle struct {
	sdf, calc *registry.Entry
}

func newOracle(root string) (*oracle, error) {
	reg := registry.New()
	sdf, err := register(reg, root, "sdf", sdfGrammarPath, engine.KindEarley)
	if err != nil {
		return nil, err
	}
	calc, err := register(reg, root, "calc", calcGrammarPath, engine.KindEarley)
	if err != nil {
		return nil, err
	}
	return &oracle{sdf: sdf, calc: calc}, nil
}

// register loads a grammar file into reg the way ipg-serve's -grammar
// flag does: .sdf files as SDF definitions, anything else as rules.
func register(reg *registry.Registry, root, name, path string, kind engine.Kind) (*registry.Entry, error) {
	src, err := os.ReadFile(filepath.Join(root, path))
	if err != nil {
		return nil, err
	}
	form := registry.FormRules
	if strings.HasSuffix(path, ".sdf") {
		form = registry.FormSDF
	}
	return reg.Register(name, registry.Spec{Source: string(src), Form: form, Engine: kind})
}

// sortName matches the SDF sorts a churn rule may extend (not the
// generated list and iteration nonterminals, nor START).
var sortName = regexp.MustCompile(`^[A-Z][A-Z-]*$`)

// decodeEpisodes is the size of the decode script clients cycle through.
const decodeEpisodes = 256

// genInputs builds a run's inputs from seed and the oracle's answers to
// every request the run will send.
func genInputs(root string, seed uint64, o *oracle) (*inputs, error) {
	in := &inputs{seed: seed}
	for _, p := range docPaths {
		text, err := os.ReadFile(filepath.Join(root, p))
		if err != nil {
			return nil, err
		}
		res, err := o.sdf.ParseInput(string(text), true)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", p, err)
		}
		body, err := json.Marshal(map[string]any{"input": string(text), "trees": true})
		if err != nil {
			return nil, err
		}
		in.docs = append(in.docs, doc{path: p, text: string(text), body: body, accepted: res.Accepted, trees: res.Trees})
	}
	if err := in.genEdits(root, o); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0xdec0de))
	for range decodeEpisodes {
		ep, err := genEpisode(o.calc, rng)
		if err != nil {
			return nil, err
		}
		in.episodes = append(in.episodes, ep)
	}
	syms := o.sdf.Grammar().Symbols()
	for _, s := range syms.Nonterminals() {
		if name := syms.Name(s); sortName.MatchString(name) && name != "START" {
			in.nonterminals = append(in.nonterminals, name)
		}
	}
	return in, nil
}

// genEdits finds the positions of the edit document whose token text
// scans back to the same single token, and records the oracle's verdict
// on the document, which every touch edit preserves.
func (in *inputs) genEdits(root string, o *oracle) error {
	text, err := os.ReadFile(filepath.Join(root, editDocPath))
	if err != nil {
		return err
	}
	in.editText = string(text)
	syms, toks, err := o.sdf.ScanText(in.editText)
	if err != nil {
		return err
	}
	res, err := o.sdf.ParseInput(in.editText, false)
	if err != nil || !res.Accepted {
		return fmt.Errorf("oracle rejects %s: %v", editDocPath, err)
	}
	in.editTokens = len(syms)
	for i, tk := range toks {
		again, err := o.sdf.InputTokens(tk.Text)
		if err != nil || len(again) != 2 || again[0] != syms[i] {
			continue
		}
		body, err := json.Marshal(map[string]any{"splices": []map[string]any{{"at": i, "remove": 1, "insert": tk.Text}}})
		if err != nil {
			return err
		}
		in.edits = append(in.edits, edit{at: i, text: tk.Text, body: body})
	}
	if len(in.edits) == 0 {
		return fmt.Errorf("no touch edits in %s", editDocPath)
	}
	return nil
}

// minTarget and maxTarget bound a decode episode's target length in
// tokens; an episode has at least as many steps as its target.
const (
	minTarget = 8
	maxTarget = 64
)

// genEpisode draws one decode episode with the oracle's cursor: a
// sampler picks each next terminal uniformly from the accept set, and
// every 8th step instead restores one position back and feeds a
// different terminal (a rejected sample, recovered). Past a target
// length of 8 to 64 tokens the sampler steers toward closing the
// sentence, and the episode ends on the first step whose accept set
// holds the end marker.
func genEpisode(calc *registry.Entry, rng *rand.Rand) (episode, error) {
	cur, _, err := engine.OpenCursor(calc.Engine(), nil)
	if err != nil {
		return episode{}, err
	}
	defer cur.Close()
	syms := calc.Grammar().Symbols()
	var set engine.TermSet
	accepts := func() ([]string, error) {
		set.Reset(cur.Vocab())
		if err := cur.Accepts(&set); err != nil {
			return nil, err
		}
		names := set.AppendNames(nil)
		slices.Sort(names)
		return names, nil
	}
	feed := func(name string) error {
		sym, ok := syms.Lookup(name)
		if !ok {
			return fmt.Errorf("decode: no terminal %q", name)
		}
		return cur.Feed(sym)
	}
	target := minTarget + rng.IntN(maxTarget-minTarget+1)
	acc, err := accepts()
	if err != nil {
		return episode{}, err
	}
	ep := episode{open: strings.Join(acc, " ")}
	// bySet[p] is the accept set at position p; fed[p] the token fed there.
	bySet := [][]string{acc}
	var fed []string
	for n := 1; ; n++ {
		s := step{restore: -1}
		if pos := len(fed); n%8 == 0 && pos > 0 {
			if alt := without(bySet[pos-1], "$", fed[pos-1]); len(alt) > 0 {
				s.restore = pos - 1
				if err := cur.Restore(pos - 1); err != nil {
					return episode{}, err
				}
				fed, bySet = fed[:pos-1], bySet[:pos]
				s.feed = alt[rng.IntN(len(alt))]
			}
		}
		if s.feed == "" {
			s.feed = pickNext(bySet[len(fed)], len(fed) >= target, rng)
		}
		if err := feed(s.feed); err != nil {
			return episode{}, err
		}
		fed = append(fed, s.feed)
		if acc, err = accepts(); err != nil {
			return episode{}, err
		}
		bySet = append(bySet, acc)
		s.pos, s.accepts = len(fed), strings.Join(acc, " ")
		s.close = len(fed) >= target && slices.Contains(acc, "$")
		ep.steps = append(ep.steps, s)
		if s.close {
			return ep, nil
		}
	}
}

// pickNext draws the next terminal from acc. Past the target length it
// closes what is open: a ")" when one fits, else an operand, never a new
// "(".
func pickNext(acc []string, closing bool, rng *rand.Rand) string {
	choices := without(acc, "$")
	if closing {
		for _, pref := range []string{")", "n"} {
			if slices.Contains(choices, pref) {
				return pref
			}
		}
		choices = without(choices, "(")
	}
	return choices[rng.IntN(len(choices))]
}

func without(xs []string, drop ...string) []string {
	var out []string
	for _, x := range xs {
		if !slices.Contains(drop, x) {
			out = append(out, x)
		}
	}
	return out
}

// ---- streams ----

// parseStream draws documents uniformly.
type parseStream struct {
	in  *inputs
	rng *rand.Rand
}

func (s *parseStream) next() op { return parseOp(s.pick()) }

func (s *parseStream) pick() *doc { return &s.in.docs[s.rng.IntN(len(s.in.docs))] }

func parseOp(d *doc) op {
	return op{kind: kindParse, method: "POST", path: "/v1/grammars/sdf/parse", body: d.body,
		check: func(body []byte) error { return checkParse(body, d.accepted, d.trees) }}
}

// checkParse compares a parse reply with the oracle's verdict.
func checkParse(body []byte, accepted bool, trees int64) error {
	var r struct {
		Accepted bool   `json:"accepted"`
		Trees    *int64 `json:"trees"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if r.Accepted != accepted || r.Trees == nil || *r.Trees != trees {
		got := "none"
		if r.Trees != nil {
			got = fmt.Sprint(*r.Trees)
		}
		return fmt.Errorf("parse: got accepted=%v trees=%s, oracle says accepted=%v trees=%d", r.Accepted, got, accepted, trees)
	}
	return nil
}

// decodeStream walks the episodes from a client-specific start: open a
// cursor, step it, and open the next once the last step closed it.
type decodeStream struct {
	in     *inputs
	ep, st int // next episode, and next step in it (0 = the open)
	cursor string
	vocab  []string
}

func newDecodeStream(in *inputs, client int) *decodeStream {
	return &decodeStream{in: in, ep: client * len(in.episodes) / 2}
}

func (s *decodeStream) next() op {
	ep := &s.in.episodes[s.ep%len(s.in.episodes)]
	o := op{kind: kindDecode, method: "POST", path: "/v1/grammars/calc/complete"}
	if s.st == 0 {
		s.st++
		o.body = []byte(`{"prefix":""}`)
		o.check = func(body []byte) error {
			r, err := parseComplete(body)
			if err != nil {
				return err
			}
			s.cursor, s.vocab = r.Cursor, r.Vocab
			return checkAccepts(r, s.vocab, 0, ep.open, false)
		}
		return o
	}
	st := ep.steps[s.st-1]
	if s.st++; s.st > len(ep.steps) {
		s.ep, s.st = s.ep+1, 0
	}
	o.body = decodeBody(s.cursor, st)
	o.check = func(body []byte) error {
		r, err := parseComplete(body)
		if err != nil {
			return err
		}
		return checkAccepts(r, s.vocab, st.pos, st.accepts, st.close)
	}
	return o
}

// decodeBody renders the request for one step on cursor.
func decodeBody(cursor string, st step) []byte {
	b := fmt.Appendf(nil, `{"cursor":%q,"feed":%q`, cursor, st.feed)
	if st.restore >= 0 {
		b = fmt.Appendf(b, `,"restore":%d`, st.restore)
	}
	if st.close {
		b = append(b, `,"close":true`...)
	}
	return append(b, '}')
}

type completeReply struct {
	Cursor  string   `json:"cursor"`
	Pos     int      `json:"pos"`
	Accepts []string `json:"accepts"`
	Bitset  string   `json:"bitset"`
	Vocab   []string `json:"vocab"`
	Closed  bool     `json:"closed"`
}

func parseComplete(body []byte) (completeReply, error) {
	var r completeReply
	err := json.Unmarshal(body, &r)
	return r, err
}

// checkAccepts compares a completion reply with the oracle: the
// position, the accept set by name, the bitset decoded against the
// vocabulary the cursor was opened with, and whether it closed.
func checkAccepts(r completeReply, vocab []string, pos int, want string, closed bool) error {
	names := slices.Clone(r.Accepts)
	slices.Sort(names)
	fromBits, err := bitsetNames(r.Bitset, vocab)
	if err != nil {
		return err
	}
	got := strings.Join(names, " ")
	switch {
	case r.Pos != pos:
		return fmt.Errorf("decode: pos %d, want %d", r.Pos, pos)
	case got != want:
		return fmt.Errorf("decode at %d: accepts [%s], oracle says [%s]", pos, got, want)
	case strings.Join(fromBits, " ") != want:
		return fmt.Errorf("decode at %d: bitset %s decodes to [%s], oracle says [%s]", pos, r.Bitset, strings.Join(fromBits, " "), want)
	case r.Closed != closed:
		return fmt.Errorf("decode at %d: closed=%v, want %v", pos, r.Closed, closed)
	}
	return nil
}

// bitsetNames decodes a hex accept bitset (bit i is byte i/8, bit i%8)
// into the sorted names it marks in vocab.
func bitsetNames(bitset string, vocab []string) ([]string, error) {
	raw, err := hex.DecodeString(bitset)
	if err != nil {
		return nil, fmt.Errorf("decode: bitset %q: %w", bitset, err)
	}
	var out []string
	for i, name := range vocab {
		if i/8 < len(raw) && raw[i/8]>>(i%8)&1 == 1 {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out, nil
}

// editStream sends touch edits to one session from a caret that starts
// at a seeded position and moves up to three edit positions either way.
type editStream struct {
	in      *inputs
	rng     *rand.Rand
	session string
	caret   int
}

func newEditStream(in *inputs, rng *rand.Rand, session string) *editStream {
	return &editStream{in: in, rng: rng, session: session, caret: rng.IntN(len(in.edits))}
}

func (s *editStream) next() op { return editOp(s.in, s.session, s.move()) }

// move steps the caret and returns the edit there.
func (s *editStream) move() *edit {
	s.caret = max(0, min(len(s.in.edits)-1, s.caret+s.rng.IntN(7)-3))
	return &s.in.edits[s.caret]
}

func editOp(in *inputs, session string, e *edit) op {
	return op{kind: kindEdit, method: "PATCH", path: "/v1/sessions/" + session, body: e.body,
		check: func(body []byte) error { return checkEdit(body, in.editTokens) }}
}

// checkEdit expects the touched document to stay accepted at its
// length.
func checkEdit(body []byte, tokens int) error {
	var r struct {
		Tokens int `json:"tokens"`
		Result *struct {
			Accepted bool `json:"accepted"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if r.Result == nil || !r.Result.Accepted || r.Tokens != tokens {
		return fmt.Errorf("edit: reply %s, want accepted at %d tokens", strings.TrimSpace(string(body)), tokens)
	}
	return nil
}

// sessionOpenOp opens a session on the edit document; its check stores
// the session id.
func sessionOpenOp(in *inputs, id *string) op {
	body, _ := json.Marshal(map[string]string{"input": in.editText}) // a string map always marshals
	return op{kind: kindEdit, method: "POST", path: "/v1/grammars/sdf/sessions", body: body,
		check: func(b []byte) error {
			var r struct {
				Session struct {
					ID     string `json:"id"`
					Tokens int    `json:"tokens"`
				} `json:"session"`
				Result *struct {
					Accepted bool `json:"accepted"`
				} `json:"result"`
			}
			if err := json.Unmarshal(b, &r); err != nil {
				return err
			}
			if r.Result == nil || !r.Result.Accepted || r.Session.Tokens != in.editTokens {
				return fmt.Errorf("session open: reply %s", strings.TrimSpace(string(b)))
			}
			*id = r.Session.ID
			return nil
		}}
}

// updateStream is a rule writer: it adds a rule `N ::= "kwK"` on a seeded
// sort N with one of its own fresh keywords, then deletes it again.
// Keywords are fresh terminals no document contains, so every document
// keeps its verdict while the rule is in the grammar.
type updateStream struct {
	in       *inputs
	rng      *rand.Rand
	keywords []string
	k        int
	pending  string // the rule the next op deletes; "" = add next
	version  uint64 // the last version seen, which must only grow
}

// clientKeywords are the fresh keywords update client c cycles through.
func clientKeywords(c int) []string {
	out := make([]string, keywordsPerClient)
	for i := range out {
		out[i] = fmt.Sprintf("kw%d", c*keywordsPerClient+i)
	}
	return out
}

func newUpdateStream(in *inputs, rng *rand.Rand, client int) *updateStream {
	return &updateStream{in: in, rng: rng, keywords: clientKeywords(client)}
}

func (s *updateStream) next() op {
	field, rule := s.advance()
	body, _ := json.Marshal(map[string]string{field: rule}) // a string map always marshals
	return op{kind: kindUpdate, method: "POST", path: "/v1/grammars/sdf/rules", body: body,
		check: func(b []byte) error {
			var r struct {
				Added   int    `json:"added"`
				Deleted int    `json:"deleted"`
				Version uint64 `json:"version"`
			}
			if err := json.Unmarshal(b, &r); err != nil {
				return err
			}
			n := r.Added
			if field == "delete" {
				n = r.Deleted
			}
			if n != 1 || r.Version <= s.version {
				return fmt.Errorf("update %s %s: reply %s after version %d", field, rule, bytes.TrimSpace(b), s.version)
			}
			s.version = r.Version
			return nil
		}}
}

// advance returns the next update: "add" with a new rule, or "delete"
// with the rule the previous add made.
func (s *updateStream) advance() (field, rule string) {
	if rule = s.pending; rule != "" {
		s.pending = ""
		return "delete", rule
	}
	nt := s.in.nonterminals[s.rng.IntN(len(s.in.nonterminals))]
	s.pending = fmt.Sprintf("%s ::= %q", nt, s.keywords[s.k%len(s.keywords)])
	s.k++
	return "add", s.pending
}

// churnStream is a saturation-phase churn client: reads, with one rule
// update after every churnReadsPerUpdate of them.
type churnStream struct {
	reads   *parseStream
	updates *updateStream
	n       int
}

func (s *churnStream) next() op {
	s.n++
	if s.n%(churnReadsPerUpdate+1) == 0 {
		return s.updates.next()
	}
	return s.reads.next()
}

// clientRNG is the random source of client c of a phase, so every
// client's request sequence follows from the seed alone.
func clientRNG(seed uint64, phase string, c int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(phase)) // a hash's Write never fails
	return rand.New(rand.NewPCG(seed, h.Sum64()+uint64(c)))
}
