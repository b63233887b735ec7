package lr

import (
	"strings"
	"testing"

	"ipg/internal/fixtures"
	"ipg/internal/grammar"
)

func roundTrip(t *testing.T, a *Automaton, g *grammar.Grammar) *Automaton {
	t.Helper()
	var buf strings.Builder
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(g, strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("Load: %v\n%s", err, buf.String())
	}
	return loaded
}

func TestSerializeRoundTrip(t *testing.T) {
	g := fixtures.Booleans()
	a := New(g)
	a.GenerateAll()
	loaded := roundTrip(t, a, g)
	if a.Dump() != loaded.Dump() {
		t.Errorf("round trip changed the graph:\n%s\n--- vs ---\n%s", a.Dump(), loaded.Dump())
	}
	if loaded.Start().ID != a.Start().ID {
		t.Error("start state lost")
	}
}

func TestSerializePartialTable(t *testing.T) {
	// A partially generated (lazy) table persists with its initial
	// states intact, so a later session resumes where this one stopped.
	g := fixtures.Booleans()
	a := New(g)
	a.Expand(a.Start()) // only the start state expanded
	loaded := roundTrip(t, a, g)
	i, c, _ := loaded.TypeCounts()
	if c != 1 || i != 3 {
		t.Errorf("partial table types: complete=%d initial=%d, want 1/3", c, i)
	}
	if a.Dump() != loaded.Dump() {
		t.Errorf("partial round trip mismatch")
	}
}

func TestSerializeRefCounts(t *testing.T) {
	g := fixtures.Booleans()
	a := New(g)
	a.GenerateAll()
	loaded := roundTrip(t, a, g)
	for _, s := range loaded.States() {
		orig, ok := a.Lookup(s.Kernel)
		if !ok {
			t.Fatalf("state %d missing from original", s.ID)
		}
		if s.RefCount != orig.RefCount {
			t.Errorf("state %d refcount %d, want %d", s.ID, s.RefCount, orig.RefCount)
		}
	}
}

func TestSerializeQuotedNames(t *testing.T) {
	// Symbol names with spaces and quotes (separated-list auxiliaries,
	// literal terminals) must survive.
	g := grammar.New(nil)
	st := g.Symbols()
	lhs := st.MustIntern(`{X ","}+`, grammar.Nonterminal)
	quote := st.MustIntern(`"`, grammar.Terminal)
	space := st.MustIntern(`a b`, grammar.Terminal)
	if err := g.AddRule(grammar.NewRule(g.Start(), lhs)); err != nil {
		t.Fatal(err)
	}
	if err := g.AddRule(grammar.NewRule(lhs, quote, space)); err != nil {
		t.Fatal(err)
	}
	a := New(g)
	a.GenerateAll()
	loaded := roundTrip(t, a, g)
	if a.Dump() != loaded.Dump() {
		t.Errorf("quoted names mangled:\n%s\n--- vs ---\n%s", a.Dump(), loaded.Dump())
	}
}

func TestSerializeDirtyHistory(t *testing.T) {
	g := fixtures.Booleans()
	a := New(g)
	a.GenerateAll()
	var victim *State
	for _, s := range a.States() {
		if s != a.Start() && len(s.Transitions) > 0 {
			victim = s
			break
		}
	}
	if victim == nil {
		t.Fatal("no state with transitions")
	}
	a.Invalidate(victim, true)
	loaded := roundTrip(t, a, g)
	lv, ok := loaded.Lookup(victim.Kernel)
	if !ok {
		t.Fatal("dirty state lost")
	}
	if lv.Type != Dirty {
		t.Fatalf("loaded type %v, want dirty", lv.Type)
	}
	if lv.Published() {
		t.Error("dirty state must not be published after load")
	}
	if len(lv.OldTransitions) != len(victim.OldTransitions) || lv.OldAccept != victim.OldAccept {
		t.Errorf("history lost: %d old transitions (want %d), oldAccept %v (want %v)",
			len(lv.OldTransitions), len(victim.OldTransitions), lv.OldAccept, victim.OldAccept)
	}
	// Reference counts must match the live table exactly: dirty history
	// still holds its references until RE-EXPAND releases them.
	for _, s := range loaded.States() {
		orig, ok := a.Lookup(s.Kernel)
		if !ok {
			t.Fatalf("state %d missing from original", s.ID)
		}
		if s.RefCount != orig.RefCount {
			t.Errorf("state %d refcount %d, want %d", s.ID, s.RefCount, orig.RefCount)
		}
	}
}

func TestSerializeByteIdentical(t *testing.T) {
	// Save∘Load∘Save is byte-identical, including stats and publication
	// flags — the golden property warm-restart snapshots rely on.
	g := fixtures.Booleans()
	a := New(g)
	a.Expand(a.Start())
	var first strings.Builder
	if err := a.Save(&first); err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, a, g)
	var second strings.Builder
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("re-serialization differs:\n%s\n--- vs ---\n%s", first.String(), second.String())
	}
	if loaded.Stats != a.Stats {
		t.Errorf("stats lost: %+v want %+v", loaded.Stats, a.Stats)
	}
}

func TestSerializePublicationFlags(t *testing.T) {
	g := fixtures.Booleans()
	a := New(g)
	a.GenerateAll()
	loaded := roundTrip(t, a, g)
	for _, s := range loaded.States() {
		if s.Type == Complete && !s.Published() {
			t.Errorf("state %d complete but unpublished after load", s.ID)
		}
	}
}

func TestLoadV1Compat(t *testing.T) {
	// Tables saved by earlier sessions (v1 header, publication implied,
	// no stats line) still load.
	g := fixtures.Booleans()
	text := tableMagicV1 + "\nstart 0\nstate 0 complete\nk 0 \"B\" \"true\"\nr \"B\" \"true\"\n"
	a, err := Load(g, strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Start().Published() {
		t.Error("v1 complete state should load published")
	}
	if a.Stats.StatesCreated != 1 {
		t.Errorf("v1 stats computed: %+v", a.Stats)
	}
	// v1 tables cannot contain dirty states.
	bad := tableMagicV1 + "\nstart 0\nstate 0 dirty\nk 0 \"B\" \"true\"\n"
	if _, err := Load(g, strings.NewReader(bad)); err == nil {
		t.Error("dirty state in v1 table should fail")
	}
}

func TestLoadErrors(t *testing.T) {
	g := fixtures.Booleans()
	for name, text := range map[string]string{
		"bad magic":     "nope\n",
		"unknown sym":   tableMagic + "\nstart 0\nstate 0 initial\nk 0 \"NOPE\"\n",
		"missing rule":  tableMagic + "\nstart 0\nstate 0 initial\nk 0 \"B\" \"B\"\n",
		"bad dot":       tableMagic + "\nstart 0\nstate 0 initial\nk 9 \"B\" \"true\"\n",
		"dangling goto": tableMagic + "\nstart 0\nstate 0 complete\nk 0 \"B\" \"true\"\nt \"true\" 7\n",
		"no start":      tableMagic + "\nstart 3\nstate 0 initial\nk 0 \"B\" \"true\"\n",
		"dup state":     tableMagic + "\nstart 0\nstate 0 initial\nstate 0 initial\n",
		"bad type":      tableMagic + "\nstart 0\nstate 0 wobbly\n",
		"pub outside":   tableMagic + "\nstart 0\nstate 0 initial\nk 0 \"B\" \"true\"\np\n",
		"ot in complet": tableMagic + "\nstart 0\nstate 0 complete\nk 0 \"B\" \"true\"\not \"true\" 0\n",
		"oa in initial": tableMagic + "\nstart 0\nstate 0 initial\nk 0 \"B\" \"true\"\noa\n",
		"bad stats":     tableMagic + "\nstats 1 2\nstart 0\nstate 0 initial\nk 0 \"B\" \"true\"\n",
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := Load(g, strings.NewReader(text)); err == nil {
				t.Errorf("Load should fail for %s", name)
			}
		})
	}
}

func TestLoadedTableParses(t *testing.T) {
	g := fixtures.Booleans()
	a := New(g)
	a.GenerateAll()
	loaded := roundTrip(t, a, g)
	// Drive the loaded table directly through ACTION/GOTO.
	tr, _ := g.Symbols().Lookup("true")
	acts := loaded.Actions(loaded.Start(), tr)
	if len(acts) != 1 || acts[0].Kind != Shift {
		t.Fatalf("loaded table ACTION wrong: %v", acts)
	}
}
