package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"time"

	"ipg/internal/engine"
	"ipg/internal/grammar"
	"ipg/internal/obs"
	"ipg/internal/registry"
	"ipg/internal/serve"
)

// The peel measures layers from outside the program. It builds the
// service in process with the program's own constructors, replays a
// workload's operations at each layer boundary in turn, from an HTTP
// round trip down to the engine call, and takes a layer's self time as
// the median at its boundary minus the medians at the boundaries it
// calls. Allocations are split the same way.

// Layer boundaries.
const (
	layerHTTP      = "http"      // loopback round trip into the handler
	layerServe     = "serve"     // Server.Handler().ServeHTTP into a recorder
	layerRegistry  = "registry"  // the registry call the handler makes
	layerTokenize  = "tokenize"  // Entry.InputTokens on the request's text
	layerEngine    = "engine"    // the engine call the registry makes
	layerRecognize = "recognize" // Engine.Recognize (parse ops only)
	layerEarley    = "earley"    // the same edits on an Earley session
	// layerTraced is the handler of a second server over the same
	// registry, with a tracer: the pass that yields the stage split.
	layerTraced = "traced"
)

// peelOps is how many operations of each kind the peel replays at every
// boundary (decode replays whole episodes, so a few more).
const peelOps = 500

// span is one boundary call as the peel recorded it. Calls of one
// operation share Request; Parent is the span of the same operation at
// the next boundary out (-1 = none).
type span struct {
	ID      int    `json:"id"`
	Request string `json:"request"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// layerStats is one boundary's replay: per-call times in µs and heap
// allocations, and mean reply bytes (HTTP and serve only).
type layerStats struct {
	us, allocs []float64
	bytes      float64
}

func (l layerStats) med() float64 { return median(l.us) }

// medAllocs is the median allocations of a call. The mean would charge
// to whichever call came first after a garbage collection the refill of
// the pools the collection emptied.
func (l layerStats) medAllocs() float64 { return median(l.allocs) }

// peel is the in-process service and what the replays recorded.
type peel struct {
	oracle *oracle
	tally  *tally

	reg       *registry.Registry
	sdf, calc *registry.Entry
	front     *serve.Server // untraced: timed at the HTTP and serve boundaries
	traced    *serve.Server
	tracer    *obs.Tracer
	hs        *http.Server
	client    *client

	t0    time.Time
	spans []span
	// ids[kind][layer][i] is the span of operation i at a boundary.
	ids [numKinds]map[string][]int
	// reused and rebuilt sum the Earley reference's chart split.
	reused, rebuilt float64
}

// newPeel builds the service in process, configured as startServer's
// flags configure ipg-serve, and serves it on a loopback listener.
func newPeel(root string, o *oracle, t *tally) (*peel, error) {
	p := &peel{oracle: o, tally: t, reg: registry.New(), t0: time.Now()}
	p.reg.SetDefaultEngine(engine.KindAuto)
	p.reg.SetSessionLimits(registry.SessionLimits{MaxSessions: 256, MaxDocTokens: 1 << 20, IdleTimeout: 10 * time.Minute})
	p.reg.SetCompletionLimits(registry.CompletionLimits{MaxCursors: 1024, MaxPrefixTokens: 1 << 16, IdleTimeout: 5 * time.Minute})
	p.reg.SetBreakerConfig(registry.BreakerConfig{Threshold: 3, Cooldown: 10 * time.Second})
	var err error
	if p.sdf, err = register(p.reg, root, "sdf", sdfGrammarPath, engine.KindDefault); err != nil {
		return nil, err
	}
	if p.calc, err = register(p.reg, root, "calc", calcGrammarPath, engine.KindDefault); err != nil {
		return nil, err
	}
	p.front, p.traced = serve.New(p.reg), serve.New(p.reg)
	p.tracer = obs.NewTracer(obs.TracerConfig{SampleEvery: 1, RingSize: 1 << 13})
	p.traced.SetTracer(p.tracer)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.hs = &http.Server{Handler: p.front.Handler()}
	go p.hs.Serve(l) // returns once close shuts the server down
	p.client = newClient("http://"+l.Addr().String(), t)
	return p, nil
}

func (p *peel) close() {
	p.client.close()
	_ = p.hs.Shutdown(context.Background()) // the replays are over; nothing to drain
	p.reg.CloseAllSessions()
	p.reg.CloseAllCompletions()
}

// call is one operation at one boundary: prep readies it untimed, run
// is the timed call, check validates what run produced.
type call struct {
	prep  func()
	run   func() error
	check func() error
	// reply is the reply body at the HTTP and serve boundaries.
	reply func() []byte
}

// exec makes an untimed call.
func (c call) exec() error {
	if c.prep != nil {
		c.prep()
	}
	if err := c.run(); err != nil {
		return err
	}
	if c.check == nil {
		return nil
	}
	return c.check()
}

// pass is one replay of a kind's operations at one boundary, with its
// own state (sessions, cursors): open runs untimed before the first
// call.
type pass struct {
	open func() error
	call func(i int) call
}

// replayer is one kind's operation list.
type replayer struct {
	n int
	// layers are the timed boundaries, outermost first.
	layers []string
	pass   func(layer string) pass
}

// measure replays n operations of kind k at each of layers, interleaved:
// operation i runs at every boundary in turn, outermost first, before
// operation i+1 runs anywhere. A drift in the host's speed during the
// replay then reaches every boundary alike and drops out of the
// differences that give self times. Each call is timed, its heap
// allocations are counted, and it is recorded as a span.
func (p *peel) measure(k opKind, n int, layers []string, passOf func(layer string) pass) map[string]layerStats {
	if p.ids[k] == nil {
		p.ids[k] = map[string][]int{}
	}
	passes := make([]pass, len(layers))
	for j, layer := range layers {
		p.ids[k][layer] = make([]int, n)
		passes[j] = passOf(layer)
		if passes[j].open != nil && !p.tally.count(passes[j].open()) {
			passes[j].call = nil // the failure is counted; the pass cannot run
		}
	}
	stats := make(map[string]layerStats, len(layers))
	var m0, m1 runtime.MemStats
	for i := range n {
		for j, layer := range layers {
			if passes[j].call == nil {
				continue
			}
			c := passes[j].call(i)
			if c.prep != nil {
				c.prep()
			}
			runtime.ReadMemStats(&m0)
			start := time.Now()
			err := c.run()
			end := time.Now()
			runtime.ReadMemStats(&m1)
			if err == nil && c.check != nil {
				err = c.check()
			}
			if !p.tally.count(err) {
				continue
			}
			st := stats[layer]
			st.us = append(st.us, us(end.Sub(start)))
			st.allocs = append(st.allocs, float64(m1.Mallocs-m0.Mallocs))
			if c.reply != nil {
				st.bytes += float64(len(c.reply()))
			}
			stats[layer] = st
			p.ids[k][layer][i] = p.addSpan(k, layer, i, start, end)
		}
	}
	for layer, st := range stats {
		st.bytes /= float64(len(st.us))
		stats[layer] = st
	}
	return stats
}

// parentOf is the boundary whose call makes layer's call ("" for the
// outermost boundary and for passes outside the chain).
func parentOf(layer string) string {
	switch layer {
	case layerServe:
		return layerHTTP
	case layerRegistry:
		return layerServe
	case layerTokenize, layerEngine, layerRecognize:
		return layerRegistry
	}
	return ""
}

func (p *peel) addSpan(k opKind, layer string, i int, start, end time.Time) int {
	par := -1
	if ids := p.ids[k][parentOf(layer)]; i < len(ids) && ids[i] > 0 {
		par = ids[i]
	}
	id := len(p.spans) + 1
	p.spans = append(p.spans, span{ID: id, Request: fmt.Sprintf("%s-%d", k, i), Layer: layer,
		StartNS: start.Sub(p.t0).Nanoseconds(), EndNS: end.Sub(p.t0).Nanoseconds(), Parent: par})
	return id
}

// kindResult is one kind's replay: statistics per boundary and the mean
// of each lifecycle stage per request in µs.
type kindResult struct {
	layers map[string]layerStats
	stages [obs.NumStages]float64
}

// replay warms kind k with a registry pass, times every boundary, then
// runs the traced pass for the stage split.
func (p *peel) replay(k opKind, r replayer) kindResult {
	p.measure(k, r.n, []string{"warm"}, func(string) pass { return r.pass(layerRegistry) })
	res := kindResult{layers: p.measure(k, r.n, r.layers, r.pass)}
	p.measure(k, r.n, []string{layerTraced}, r.pass)
	prefix := "peel-" + k.String() + "-"
	n := 0
	for _, sp := range p.tracer.Snapshot("", 0) {
		if strings.HasPrefix(sp.RequestID, prefix) {
			n++
			for st, d := range sp.Stages {
				res.stages[st] += us(d)
			}
		}
	}
	for st := range res.stages {
		res.stages[st] /= float64(max(n, 1))
	}
	return res
}

// opPass replays ops over HTTP or through a handler: layerHTTP uses the
// loopback listener, layerServe the untraced handler, layerTraced the
// traced one. setup, when set, is an op sent untimed before the first.
// next is called only once the previous reply has been checked, so ops
// may depend on earlier replies (cursor and session ids).
func (p *peel) opPass(layer string, k opKind, setup func() op, next func(i int) op) pass {
	send := func(o op, i int) call {
		switch layer {
		case layerHTTP:
			return p.httpCall(o)
		case layerTraced:
			id := "" // the setup op stays out of the stage split
			if i >= 0 {
				id = fmt.Sprintf("peel-%s-%d", k, i)
			}
			return serveCall(p.traced, o, id)
		default:
			return serveCall(p.front, o, "")
		}
	}
	ps := pass{call: func(i int) call { return send(next(i), i) }}
	if setup != nil {
		ps.open = func() error { return send(setup(), -1).exec() }
	}
	return ps
}

func (p *peel) httpCall(o op) call {
	var buf bytes.Buffer
	return call{
		run:   func() error { return p.client.roundTrip(o, &buf) },
		check: func() error { return o.check(buf.Bytes()) },
		reply: buf.Bytes,
	}
}

// serveCall runs o through s's handler into a recorder, tagged with
// requestID when set.
func serveCall(s *serve.Server, o op, requestID string) call {
	var req *http.Request
	var rec *httptest.ResponseRecorder
	return call{
		prep: func() {
			req = httptest.NewRequest(o.method, o.path, bytes.NewReader(o.body))
			if requestID != "" {
				req.Header.Set("X-Request-Id", requestID)
			}
			rec = httptest.NewRecorder()
		},
		run: func() error {
			s.Handler().ServeHTTP(rec, req)
			return statusErr(o, rec.Code, rec.Body.Bytes(), nil)
		},
		check: func() error { return o.check(rec.Body.Bytes()) },
		reply: func() []byte { return rec.Body.Bytes() },
	}
}

func isOpLayer(layer string) bool {
	return layer == layerHTTP || layer == layerServe || layer == layerTraced
}

// parseReplayer replays n documents drawn as a parse client draws them.
func (p *peel) parseReplayer(in *inputs, n int) (replayer, error) {
	s := &parseStream{in: in, rng: clientRNG(in.seed, "peel", 0)}
	docs := make([]*doc, n)
	toks := map[*doc][]grammar.Symbol{}
	for i := range docs {
		docs[i] = s.pick()
		if toks[docs[i]] == nil {
			t, err := p.sdf.InputTokens(docs[i].text)
			if err != nil {
				return replayer{}, err
			}
			toks[docs[i]] = t
		}
	}
	eng := p.sdf.Engine()
	return replayer{n: n,
		layers: []string{layerHTTP, layerServe, layerRegistry, layerTokenize, layerEngine, layerRecognize},
		pass: func(layer string) pass {
			if isOpLayer(layer) {
				return p.opPass(layer, kindParse, nil, func(i int) op { return parseOp(docs[i]) })
			}
			return pass{call: func(i int) call {
				d := docs[i]
				var accepted bool
				var trees int64
				verdict := func() error {
					if accepted != d.accepted || trees != d.trees {
						return fmt.Errorf("peel parse %s: accepted=%v trees=%d, oracle says %v %d", d.path, accepted, trees, d.accepted, d.trees)
					}
					return nil
				}
				switch layer {
				case layerRegistry:
					return call{run: func() error {
						res, err := p.sdf.ParseInput(d.text, true)
						accepted, trees = res.Accepted, res.Trees
						return err
					}, check: verdict}
				case layerTokenize:
					return call{run: func() error { _, err := p.sdf.InputTokens(d.text); return err }}
				case layerRecognize:
					return call{run: func() (err error) {
						accepted, err = eng.Recognize(toks[d])
						trees = d.trees // recognition counts no trees
						return err
					}, check: verdict}
				default:
					return call{run: func() error {
						res, err := eng.Parse(toks[d], true)
						accepted, trees = res.Accepted, d.trees // trees are counted by the registry
						return err
					}, check: verdict}
				}
			}}
		}}, nil
}

// decodeOp is one decode request: an episode's open (st = -1) or one of
// its steps.
type decodeOp struct {
	ep *episode
	st int
}

// decodeReplayer replays whole episodes until at least n requests.
func (p *peel) decodeReplayer(in *inputs, n int) (replayer, error) {
	var ops []decodeOp
	for e := 0; len(ops) < n; e++ {
		ep := &in.episodes[e%len(in.episodes)]
		for st := -1; st < len(ep.steps); st++ {
			ops = append(ops, decodeOp{ep, st})
		}
	}
	syms := p.calc.Grammar().Symbols()
	term := map[string]grammar.Symbol{}
	for _, t := range syms.Terminals() {
		term[syms.Name(t)] = t
	}
	return replayer{n: len(ops),
		layers: []string{layerHTTP, layerServe, layerRegistry, layerTokenize, layerEngine},
		pass: func(layer string) pass {
			if isOpLayer(layer) {
				s := &decodeStream{in: in}
				return p.opPass(layer, kindDecode, nil, func(int) op { return s.next() })
			}
			var cs *registry.CompletionSession
			var cur engine.Cursor
			var set engine.TermSet
			return pass{call: func(i int) call {
				d := ops[i]
				want, feed := d.ep.open, ""
				var st step
				if d.st >= 0 {
					st = d.ep.steps[d.st]
					want, feed = st.accepts, st.feed
				}
				check := func() error { return sameAccepts(&set, want) }
				switch {
				case layer == layerTokenize:
					return call{run: func() error { _, err := p.calc.InputTokens(feed); return err }}
				case layer == layerRegistry && d.st < 0:
					return call{run: func() (err error) {
						if cs, _, err = p.reg.OpenCompletion(p.calc, "", nil); err != nil {
							return err
						}
						_, err = cs.Apply(-1, nil, &set, nil)
						return err
					}, check: check}
				case layer == layerRegistry:
					return call{run: func() error {
						toks, err := cs.FeedTokens(st.feed)
						if err != nil {
							return err
						}
						if _, err := cs.Apply(st.restore, toks, &set, nil); err != nil {
							return err
						}
						if st.close {
							p.reg.CloseCompletion(cs.ID())
						}
						return nil
					}, check: check}
				case d.st < 0:
					return call{run: func() (err error) {
						if cur, _, err = engine.OpenCursor(p.calc.Engine(), nil); err != nil {
							return err
						}
						set.Reset(cur.Vocab())
						return cur.Accepts(&set)
					}, check: check}
				default:
					return call{run: func() error {
						if st.restore >= 0 {
							if err := cur.Restore(st.restore); err != nil {
								return err
							}
						}
						if err := cur.Feed(term[st.feed]); err != nil {
							return err
						}
						if err := cur.Accepts(&set); err != nil {
							return err
						}
						if st.close {
							cur.Close()
						}
						return nil
					}, check: check}
				}
			}}
		}}, nil
}

func sameAccepts(set *engine.TermSet, want string) error {
	names := set.AppendNames(nil)
	slices.Sort(names)
	if got := strings.Join(names, " "); got != want {
		return fmt.Errorf("peel decode: accepts [%s], oracle says [%s]", got, want)
	}
	return nil
}

// editReplayer replays n touch edits from a caret walk on one session
// per pass.
func (p *peel) editReplayer(in *inputs, n int) (replayer, error) {
	s := newEditStream(in, clientRNG(in.seed, "peel", 0), "")
	edits := make([]*edit, n)
	for i := range edits {
		edits[i] = s.move()
	}
	toks, err := p.sdf.InputTokens(in.editText)
	if err != nil {
		return replayer{}, err
	}
	sameDoc := func(accepted bool, tokens int) error {
		if !accepted || tokens != in.editTokens {
			return fmt.Errorf("peel edit: accepted=%v at %d tokens, want accepted at %d", accepted, tokens, in.editTokens)
		}
		return nil
	}
	return replayer{n: n,
		layers: []string{layerHTTP, layerServe, layerRegistry, layerTokenize, layerEngine, layerEarley},
		pass: func(layer string) pass {
			switch layer {
			case layerHTTP, layerServe, layerTraced:
				var id string
				return p.opPass(layer, kindEdit, func() op { return sessionOpenOp(in, &id) },
					func(i int) op { return editOp(in, id, edits[i]) })
			case layerTokenize:
				return pass{call: func(i int) call {
					return call{run: func() error { _, err := p.sdf.InputTokens(edits[i].text); return err }}
				}}
			case layerRegistry:
				var sess *registry.Session
				return pass{
					open: func() (err error) {
						if sess, err = p.reg.OpenSession(p.sdf, in.editText); err == nil {
							_, err = sess.Reparse(nil)
						}
						return err
					},
					call: func(i int) call {
						e := edits[i]
						var accepted bool
						return call{run: func() error {
							if err := sess.Splice(e.at, 1, e.text, nil); err != nil {
								return err
							}
							res, err := sess.Reparse(nil)
							accepted = res.Accepted
							return err
						}, check: func() error { return sameDoc(accepted, sess.Stat().Tokens) }}
					}}
			}
			eng := p.sdf.Engine()
			if layer == layerEarley {
				eng = p.oracle.sdf.Engine()
			}
			var es engine.Session
			return pass{
				open: func() (err error) {
					if es, err = engine.OpenSession(eng, toks); err == nil {
						_, err = es.Reparse()
					}
					return err
				},
				call: func(i int) call {
					e := edits[i]
					var accepted bool
					return call{run: func() error {
						if err := es.Splice(e.at, 1, toks[e.at:e.at+1]); err != nil {
							return err
						}
						res, err := es.Reparse()
						accepted = res.Accepted
						return err
					}, check: func() error {
						if layer == layerEarley {
							st := es.Stats()
							p.reused += float64(st.LastReused)
							p.rebuilt += float64(st.LastRebuilt)
						}
						return sameDoc(accepted, es.Len())
					}}
				}}
		}}, nil
}

// peelKeywordClient is the first keyword pool of the peel's rule
// updates, apart from the load clients' pools.
const peelKeywordClient = 1 + maxConns

// updateReplayer replays n rule updates: add/delete pairs. Each
// boundary's pass updates rules with keywords of its own, since the
// interleaved passes would otherwise add a rule another pass has just
// added; every pass draws the same sorts.
func (p *peel) updateReplayer(in *inputs, n int) (replayer, error) {
	pools := []string{layerHTTP, layerServe, layerRegistry, layerTraced}
	stream := func(layer string) *updateStream {
		return newUpdateStream(in, clientRNG(in.seed, "peel", 0), peelKeywordClient+slices.Index(pools, layer))
	}
	type update struct{ field, rule string }
	ups := make([]update, n)
	s := stream(layerRegistry)
	for i := range ups {
		ups[i].field, ups[i].rule = s.advance()
	}
	return replayer{n: n,
		layers: []string{layerHTTP, layerServe, layerRegistry},
		pass: func(layer string) pass {
			if isOpLayer(layer) {
				s := stream(layer)
				return p.opPass(layer, kindUpdate, nil, func(int) op { return s.next() })
			}
			return pass{call: func(i int) call {
				u := ups[i]
				var got int
				return call{run: func() (err error) {
					if u.field == "add" {
						got, err = p.sdf.AddRulesText(u.rule)
					} else {
						got, err = p.sdf.DeleteRulesText(u.rule)
					}
					return err
				}, check: func() error {
					if got != 1 {
						return fmt.Errorf("peel update %s %s: %d rules changed", u.field, u.rule, got)
					}
					return nil
				}}
			}}
		}}, nil
}
