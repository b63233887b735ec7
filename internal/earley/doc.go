package earley

import (
	"errors"
	"fmt"

	"ipg/internal/cancel"
	"ipg/internal/forest"
	"ipg/internal/grammar"
)

// Doc is a retained-chart document session: the editor-style workload
// where one token stream is parsed, edited, and reparsed many times.
// It keeps the full Earley chart of its last parse and, on reparse
// after an edit, reuses every item set strictly left of the leftmost
// damaged token verbatim — item set i depends only on tokens[0..i-1]
// and the grammar, so a splice at token k leaves sets 0..k valid and
// only sets k+1.. are re-driven. The resumed chart (and therefore the
// parse result and forest) is identical to a from-scratch parse of the
// edited text.
//
// A Doc is not safe for concurrent use; callers serialize access (the
// registry session layer holds a per-session mutex).
type Doc struct {
	p          *Parser
	buildTrees bool
	tokens     []grammar.Symbol
	w          *Workspace
	prog       *program // compiled view the retained chart was built with

	damage int // leftmost damaged token since last reparse; -1 = clean
	valid  bool
	res    Result

	lastReused, lastRebuilt int
	reparses, fullReparses  uint64
	setsReused, setsRebuilt uint64

	// Retained forest state (buildTrees mode). memo entries whose span
	// ends at or before memoEnd are still valid for the current tokens;
	// stale entries are purged at the next tree build.
	b         *builder
	memoEnd   int32
	root      *forest.Node
	treeValid bool
}

// ErrSplice reports an out-of-range or malformed splice; the document
// is left unchanged.
var ErrSplice = errors.New("earley: splice out of range")

// CheckSplice validates replacing tokens[at : at+removed] of an n-token
// document with insert, returning the ErrSplice a Splice would: the
// range must lie inside the document and the end marker cannot be
// inserted.
func CheckSplice(n, at, removed int, insert []grammar.Symbol) error {
	if at < 0 || removed < 0 || at > n || removed > n-at {
		return fmt.Errorf("%w: at=%d remove=%d len=%d", ErrSplice, at, removed, n)
	}
	for _, s := range insert {
		if s == grammar.EOF {
			return fmt.Errorf("%w: cannot insert end marker", ErrSplice)
		}
	}
	return nil
}

// OpenDoc opens a document session over input (a trailing end marker is
// accepted and dropped). With buildTrees, reparses record completions
// so Tree can rebuild the packed forest incrementally; without, the
// recognition path keeps the Leo memo. The Doc owns its workspace and
// copies input, so the caller's slice may be reused.
func (p *Parser) OpenDoc(input []grammar.Symbol, buildTrees bool) *Doc {
	if n := len(input); n > 0 && input[n-1] == grammar.EOF {
		input = input[:n-1]
	}
	return &Doc{
		p:          p,
		buildTrees: buildTrees,
		tokens:     append([]grammar.Symbol(nil), input...),
		w:          new(Workspace),
		damage:     0,
		memoEnd:    -1,
	}
}

// Len returns the current token count.
func (d *Doc) Len() int { return len(d.tokens) }

// Tokens returns the current token stream (not a copy; do not mutate).
func (d *Doc) Tokens() []grammar.Symbol { return d.tokens }

// Splice replaces tokens[at:at+removed] with insert, recording at as
// damage. The end marker cannot be inserted. A same-length splice on a
// warm document performs no allocation.
func (d *Doc) Splice(at, removed int, insert []grammar.Symbol) error {
	if err := CheckSplice(len(d.tokens), at, removed, insert); err != nil {
		return err
	}
	switch {
	case removed >= len(insert):
		copy(d.tokens[at:], insert)
		copy(d.tokens[at+len(insert):], d.tokens[at+removed:])
		d.tokens = d.tokens[:len(d.tokens)-removed+len(insert)]
	default:
		old := len(d.tokens)
		d.tokens = append(d.tokens, insert[removed:]...)
		copy(d.tokens[at+len(insert):], d.tokens[at+removed:old])
		copy(d.tokens[at:], insert)
	}
	if d.damage < 0 || at < d.damage {
		d.damage = at
	}
	if int32(at) < d.memoEnd {
		d.memoEnd = int32(at)
	}
	return nil
}

// Reparse brings the chart up to date with the current tokens and
// returns the recognition result. With no damage since the last call it
// returns the cached result and expands nothing; after an edit at
// leftmost token k it reuses sets 0..min(k, built-1) and re-drives the
// rest; after a grammar change it reparses from scratch. A warm
// same-length reparse allocates nothing. fl (nil never cancels) is
// polled at the chart drive's per-set checkpoints: an aborted reparse
// returns the *cancel.Error and leaves the document needing a
// from-scratch drive on its next reparse (the retained chart stops
// mid-set at the abort point, so it cannot be resumed).
func (d *Doc) Reparse(fl *cancel.Flag) (Result, error) {
	pr := d.p.program()
	if d.valid && d.prog == pr && d.damage < 0 {
		d.lastReused, d.lastRebuilt = len(d.w.bounds)-1, 0
		return d.res, nil
	}
	start := 0
	if d.valid && d.prog == pr {
		keep := d.damage
		if m := len(d.w.bounds) - 2; keep > m {
			keep = m
		}
		start = keep + 1
	} else if d.prog != pr {
		// Grammar moved: every retained structure (chart, forest memo,
		// hash-consed nodes) refers to the old rule set.
		d.resetForest()
	}
	res, err := d.p.run(pr, d.tokens, d.w, d.buildTrees, start, fl)
	if err != nil {
		d.valid = false
		d.treeValid = false
		return res, err
	}
	d.res = res
	d.prog = pr
	d.valid = true
	d.treeValid = false
	d.damage = -1
	d.lastReused = start
	d.lastRebuilt = len(d.w.bounds) - 1 - start
	d.reparses++
	if start == 0 {
		d.fullReparses++
	}
	d.setsReused += uint64(d.lastReused)
	d.setsRebuilt += uint64(d.lastRebuilt)
	return d.res, nil
}

// Tree reparses if needed and builds the packed forest of the current
// tokens, reusing every memoized forest node whose span lies entirely
// left of all edits since the last build. Only valid on a Doc opened
// with buildTrees. Both the chart drive and the forest walk poll fl;
// memoized forest nodes completed before an abort stay valid and are
// reused by the next build. On error the result is empty.
func (d *Doc) Tree(fl *cancel.Flag) (Result, error) {
	if !d.buildTrees {
		return Result{}, errors.New("earley: Tree on a recognition-only document")
	}
	res, err := d.Reparse(fl)
	if err != nil {
		return Result{}, err
	}
	if d.treeValid {
		res.Root = d.root
		res.Forest = d.b.f
		return res, nil
	}
	if d.b == nil {
		d.b = &builder{
			f:      forest.NewForest(),
			memo:   map[span]*forest.Node{},
			onPath: map[span]bool{},
		}
	}
	d.b.pr, d.b.w, d.b.input, d.b.fl = d.prog, d.w, d.tokens, fl
	res.Forest = d.b.f
	if !res.Accepted {
		return res, nil
	}
	// Purge memo entries reaching into the damaged region; survivors are
	// reused as-is, so the rebuild touches only spans the edits moved.
	for key := range d.b.memo {
		if key.j > d.memoEnd {
			delete(d.b.memo, key)
		}
	}
	root, err := d.b.build()
	if err != nil {
		return Result{}, err
	}
	d.root = root
	d.treeValid = true
	d.memoEnd = int32(len(d.tokens))
	res.Root = root
	return res, nil
}

// ForestNodes returns the retained forest's node count (0 without
// trees). Incremental rebuilds share prefix nodes but keep superseded
// suffix nodes alive, so a long-lived heavily edited session grows its
// forest; ResetForest reclaims it.
func (d *Doc) ForestNodes() int {
	if d.b == nil {
		return 0
	}
	return d.b.f.NodeCount()
}

// ResetForest drops the retained forest and memo; the next Tree call
// rebuilds from scratch into a fresh forest.
func (d *Doc) ResetForest() { d.resetForest() }

func (d *Doc) resetForest() {
	d.b = nil
	d.root = nil
	d.treeValid = false
	d.memoEnd = -1
}

// DocStats is a point-in-time accounting snapshot of a document
// session's incremental-reuse behavior.
type DocStats struct {
	// Tokens is the current document length; Sets and Items size the
	// retained chart.
	Tokens int
	Sets   int
	Items  int
	// Reparses counts chart drives (FullReparses of which started from
	// set 0); a clean Reparse that returned the cached result counts as
	// neither.
	Reparses     uint64
	FullReparses uint64
	// SetsReused/SetsRebuilt accumulate, over all reparses, how many
	// item sets were kept verbatim vs re-expanded; LastReused and
	// LastRebuilt are the same split for the most recent call.
	SetsReused  uint64
	SetsRebuilt uint64
	LastReused  int
	LastRebuilt int
	// ForestNodes sizes the retained forest (trees mode only).
	ForestNodes int
}

// Stats returns the session's reuse accounting.
func (d *Doc) Stats() DocStats {
	sets := len(d.w.bounds) - 1
	if sets < 0 {
		sets = 0
	}
	return DocStats{
		Tokens:       len(d.tokens),
		Sets:         sets,
		Items:        len(d.w.items),
		Reparses:     d.reparses,
		FullReparses: d.fullReparses,
		SetsReused:   d.setsReused,
		SetsRebuilt:  d.setsRebuilt,
		LastReused:   d.lastReused,
		LastRebuilt:  d.lastRebuilt,
		ForestNodes:  d.ForestNodes(),
	}
}
