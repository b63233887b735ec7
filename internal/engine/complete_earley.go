package engine

import (
	"ipg/internal/earley"
	"ipg/internal/grammar"
)

// earleyCursor adapts the chart-backed earley.Cursor to the Cursor
// interface: the grammar-driven answer, no table at all. Accept sets
// come from scanning the final item set; feeds resume the retained
// chart through the document machinery, so advancing by one token
// drives exactly one item set. Uniformly with the table-driven
// cursors, a grammar change makes the cursor stale instead of
// adapting (even though the Earley backend could reparse): completion
// clients cache vocabularies per version, so a silent re-answer under
// a new grammar would desynchronize their bitsets.
type earleyCursor struct {
	e       *Earley
	version uint64
	vocab   *Vocab
	cur     *earley.Cursor
	stale   bool
}

// OpenCursor implements Engine for the Earley backend.
func (e *Earley) OpenCursor() (Cursor, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return &earleyCursor{
		e:       e,
		version: e.g.Version(),
		vocab:   NewVocab(e.g),
		cur:     e.p.OpenCursor(),
	}, nil
}

// use takes the engine lock for one operation and verifies the grammar
// has not moved; the caller must unlock unless an error is returned.
func (c *earleyCursor) use() error {
	if c.stale {
		return ErrCursorStale
	}
	c.e.mu.RLock()
	if c.e.g.Version() != c.version {
		c.e.mu.RUnlock()
		c.stale = true
		return ErrCursorStale
	}
	return nil
}

// Vocab implements Cursor.
func (c *earleyCursor) Vocab() *Vocab { return c.vocab }

// Pos implements Cursor.
func (c *earleyCursor) Pos() int { return c.cur.Pos() }

// Checkpoint implements Cursor.
func (c *earleyCursor) Checkpoint() int { return c.cur.Pos() }

// Accepts implements Cursor.
func (c *earleyCursor) Accepts(dst *TermSet) error {
	if err := c.use(); err != nil {
		return err
	}
	defer c.e.mu.RUnlock()
	dst.Reset(c.vocab)
	c.cur.Accepts(dst.Add)
	return nil
}

// Feed implements Cursor.
func (c *earleyCursor) Feed(t grammar.Symbol) error {
	if err := c.use(); err != nil {
		return err
	}
	defer c.e.mu.RUnlock()
	if c.vocab.Index(t) < 0 || !c.cur.Feed(t) {
		return ErrRejected
	}
	return nil
}

// Restore implements Cursor.
func (c *earleyCursor) Restore(cp int) error {
	if err := c.use(); err != nil {
		return err
	}
	defer c.e.mu.RUnlock()
	if !c.cur.Restore(cp) {
		return badRestore(cp, c.cur.Pos())
	}
	return nil
}

// Close implements Cursor. The chart workspace is owned by the wrapped
// document and garbage-collected with it.
func (c *earleyCursor) Close() {
	c.cur = nil
	c.vocab = nil
	c.e = nil
	c.stale = true
}
