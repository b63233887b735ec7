package main

import (
	"context"
	"encoding/json"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// root is the repository root as seen from this package's directory.
const root = ".."

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n     int
		label string
	}{{0, ""}, {99, ""}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {9999, "p99"}, {10000, "p99.9"}, {100000, "p99.99"}} {
		q, label := tailPercentile(tc.n)
		if label != tc.label {
			t.Errorf("tailPercentile(%d) = %q, want %q", tc.n, label, tc.label)
		}
		// The rule: at least ten samples lie beyond the reported quantile.
		if label != "" && float64(tc.n)*(1-q) < 10-1e-6 {
			t.Errorf("tailPercentile(%d) = %v leaves %.2f samples beyond it", tc.n, q, float64(tc.n)*(1-q))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.99: 10, 0.1: 1} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing is not NaN")
	}
}

// at builds a closed-loop record sent at sent ms and done after lat ms.
func at(sent, lat float64, ok bool) record {
	s := time.Duration(sent * float64(time.Millisecond))
	return record{due: s, sent: s, done: s + time.Duration(lat*float64(time.Millisecond)), ok: ok}
}

func TestWindowedCapacity(t *testing.T) {
	var recs []record
	for w, n := range []int{10, 30, 20} {
		for i := range n {
			recs = append(recs, at(float64(w*1000+i), 1, true))
		}
	}
	// Completed after the phase: not counted.
	recs = append(recs, at(3500, 1, true))
	got := windowedCapacity(recs, 3*time.Second, time.Second, 5*time.Millisecond)
	if got != 20 {
		t.Errorf("capacity = %v/s, want the median window, 20/s", got)
	}
	// Ten requests in each half second are 20/s.
	var half []record
	for i := range 10 {
		half = append(half, at(float64(i), 1, true), at(float64(500+i), 1, true))
	}
	if got := windowedCapacity(half, time.Second, 500*time.Millisecond, 5*time.Millisecond); got != 20 {
		t.Errorf("capacity over half-second windows = %v/s, want 20/s", got)
	}
	// A phase shorter than a window is one window.
	if got := windowedCapacity(half, 800*time.Millisecond, time.Second, 5*time.Millisecond); got != 25 {
		t.Errorf("capacity of a 0.8s phase = %v/s, want 20 requests / 0.8s = 25/s", got)
	}
}

// TestLimitAccounting: a request that failed or was refused misses the
// latency limit, however fast its reply; so does a slow success.
func TestLimitAccounting(t *testing.T) {
	recs := []record{
		at(100, 1, true),  // counts
		at(200, 1, false), // failed or refused: misses the limit
		at(300, 9, true),  // over the 5 ms limit
		at(400, 5, true),  // exactly at the limit: counts
	}
	if got := windowedCapacity(recs, time.Second, time.Second, 5*time.Millisecond); got != 2 {
		t.Errorf("capacity = %v, want 2 (one failure and one slow reply miss the limit)", got)
	}
}

// TestLatenessFromDue: an open loop times a request from when it was
// due, so the generator's lateness is charged to the request; a closed
// loop times from the send.
func TestLatenessFromDue(t *testing.T) {
	r := record{due: 10 * time.Millisecond, sent: 12 * time.Millisecond, done: 15 * time.Millisecond, ok: true}
	if got := r.latency(true); got != 5*time.Millisecond {
		t.Errorf("open-loop latency = %v, want 5ms from the due time", got)
	}
	if got := r.latency(false); got != 3*time.Millisecond {
		t.Errorf("closed-loop latency = %v, want 3ms from the send", got)
	}
	if got := r.late(); got != 2*time.Millisecond {
		t.Errorf("lateness = %v, want 2ms", got)
	}
	got := latenciesMS([]record{r, {ok: false, done: time.Hour}}, true, func(record) bool { return true })
	if !reflect.DeepEqual(got, []float64{5}) {
		t.Errorf("latencies = %v, want only the success's 5ms", got)
	}
}

// TestRunClosedThink: a closed-loop client with think time sends each
// request think after the previous reply, and its lateness is the
// timer's overshoot past that due time.
func TestRunClosedThink(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	defer srv.Close()
	c := newClient(srv.URL, &tally{})
	defer c.close()
	recs := runClosed(context.Background(), c, &countStream{}, 20*time.Millisecond, 0, time.Now(), 200*time.Millisecond)
	if len(recs) < 3 || len(recs) > 11 || !recs[0].ok {
		t.Fatalf("%d requests in 200ms with 20ms think time", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if want := recs[i-1].done + 20*time.Millisecond; recs[i].due != want {
			t.Errorf("request %d due %v, want previous reply + think = %v", i, recs[i].due, want)
		}
		if recs[i].late() < 0 {
			t.Errorf("request %d sent before it was due", i)
		}
	}
}

type countStream struct{ n int }

func (s *countStream) next() op {
	s.n++
	return op{kind: kindParse, method: "GET", path: "/", check: func([]byte) error { return nil }}
}

func TestOracleComparison(t *testing.T) {
	one := int64(1)
	parseReply := func(accepted bool, trees *int64) []byte {
		b, _ := json.Marshal(map[string]any{"accepted": accepted, "trees": trees})
		return b
	}
	if err := checkParse(parseReply(true, &one), true, 1); err != nil {
		t.Errorf("matching parse reply rejected: %v", err)
	}
	two := int64(2)
	for name, body := range map[string][]byte{
		"ambiguous": parseReply(true, &two),
		"rejected":  parseReply(false, &one),
		"no trees":  parseReply(true, nil),
	} {
		if checkParse(body, true, 1) == nil {
			t.Errorf("%s parse reply passed the oracle", name)
		}
	}

	vocab := []string{"$", "(", ")", "n"}
	ok := completeReply{Pos: 1, Accepts: []string{"$", ")"}, Bitset: "05"}
	if err := checkAccepts(ok, vocab, 1, "$ )", false); err != nil {
		t.Errorf("matching accept set rejected: %v", err)
	}
	for name, r := range map[string]completeReply{
		"wrong names":  {Pos: 1, Accepts: []string{"n"}, Bitset: "05"},
		"wrong bitset": {Pos: 1, Accepts: []string{"$", ")"}, Bitset: "09"},
		"wrong pos":    {Pos: 2, Accepts: []string{"$", ")"}, Bitset: "05"},
		"closed":       {Pos: 1, Accepts: []string{"$", ")"}, Bitset: "05", Closed: true},
	} {
		if checkAccepts(r, vocab, 1, "$ )", false) == nil {
			t.Errorf("%s passed the oracle", name)
		}
	}

	if err := checkEdit([]byte(`{"tokens":475,"result":{"accepted":true}}`), 475); err != nil {
		t.Errorf("matching edit reply rejected: %v", err)
	}
	for _, body := range []string{`{"tokens":474,"result":{"accepted":true}}`, `{"tokens":475,"result":{"accepted":false}}`, `{"tokens":475}`} {
		if checkEdit([]byte(body), 475) == nil {
			t.Errorf("edit reply %s passed the oracle", body)
		}
	}

	u := newUpdateStream(&inputs{nonterminals: []string{"A"}}, clientRNG(1, "test", 0), 0)
	add, del := u.next(), u.next()
	if err := add.check([]byte(`{"added":1,"version":2}`)); err != nil {
		t.Errorf("good add rejected: %v", err)
	}
	if del.check([]byte(`{"deleted":1,"version":2}`)) == nil {
		t.Error("a version that did not grow passed")
	}
	if del.check([]byte(`{"deleted":0,"version":3}`)) == nil {
		t.Error("a delete that removed nothing passed")
	}
}

func TestInputsFromSeed(t *testing.T) {
	o, err := newOracle(root)
	if err != nil {
		t.Fatal(err)
	}
	a, err := genInputs(root, 1, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genInputs(root, 1, o)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genInputs(root, 2, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.episodes, b.episodes) {
		t.Error("the same seed gave different decode episodes")
	}
	if reflect.DeepEqual(a.episodes, c.episodes) {
		t.Error("different seeds gave the same decode episodes")
	}
	for _, d := range a.docs {
		if !d.accepted || d.trees != 1 {
			t.Errorf("oracle: %s accepted=%v trees=%d, want one tree", d.path, d.accepted, d.trees)
		}
	}
	if a.editTokens != 475 || len(a.edits) == 0 {
		t.Errorf("edit document has %d tokens and %d touch edits", a.editTokens, len(a.edits))
	}
	for _, ep := range a.episodes {
		last := ep.steps[len(ep.steps)-1]
		if !last.close || last.pos < 8 || !strings.Contains(" "+last.accepts+" ", " $ ") {
			t.Fatalf("episode ends at pos %d close=%v accepts [%s]", last.pos, last.close, last.accepts)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	vs := newValues()
	for i, d := range endToEnd {
		vs.set(d.name, 1.25+float64(i), "")
	}
	res, err := vs.result(endToEnd, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	line, err := jsonLine(res)
	if err != nil {
		t.Fatal(err)
	}
	var back result
	if err := json.Unmarshal([]byte(line), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, res) || back.Correct {
		t.Errorf("round trip: %+v, want %+v (and not correct with a failure)", back, res)
	}
	vs.set("rss_mb", math.NaN(), "")
	if _, err := vs.result(endToEnd, 10, 1); err == nil {
		t.Error("a metric with no samples rendered")
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &keys); err != nil {
		t.Fatal(err)
	}
	if got := slices.Sorted(maps.Keys(keys)); !reflect.DeepEqual(got, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("result keys %v", got)
	}

	path := filepath.Join(t.TempDir(), "runs.jsonl")
	for seed := range uint64(3) {
		if err := appendRecord(path, runRecord{Workload: "parse", Seed: seed, result: res}); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := readRuns(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 || runs[2].Seed != 2 || !reflect.DeepEqual(runs[0].result, res) {
		t.Errorf("read back %+v", runs)
	}
}

// TestQuartiles pins the cut points to Python's statistics.quantiles
// (n=4), which the benchmark's acceptance check uses.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name          string
		parent, chnge []float64
		higherBetter  bool
		moreFailures  bool
		want          string
	}{
		{"faster", base, scale(0.8), false, false, "better"},
		{"slower beyond the bound", base, scale(1.2), false, false, "worse"},
		{"within the bound", base, scale(1.01), false, false, "same"},
		{"more capacity", base, scale(1.2), true, false, "better"},
		{"spread wider than the bound", noisy, scale(1.05), false, false, "unresolved"},
		{"faster but failing more", base, scale(0.8), false, true, "worse"},
	} {
		if got := verdict(tc.parent, tc.chnge, 0.1, tc.higherBetter, tc.moreFailures); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestFailureShare: the failure share a verdict compares pools each
// side's runs of one workload.
func TestFailureShare(t *testing.T) {
	runs := []runRecord{
		{Workload: "parse", result: result{Attempted: 1000, Failed: 0}},
		{Workload: "parse", result: result{Attempted: 1000, Failed: 4}},
		{Workload: "edit", result: result{Attempted: 10, Failed: 10}},
	}
	f, a, share := failureShare(runs, "parse")
	if f != 4 || a != 2000 || share != 0.002 {
		t.Errorf("failureShare = %d/%d = %v, want 4/2000 = 0.002", f, a, share)
	}
	if _, _, parent := failureShare(runs[:1], "parse"); !(share > parent+maxFailureRise) {
		t.Errorf("a failure share of %v over a parent's %v is not more failures", share, parent)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("workloads %v, want %s at %d", names, w.name, i)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) || len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program prints %d+%d",
			len(decl.EndToEnd), len(decl.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range decl.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, program prints %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	for i, m := range decl.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, program prints %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}

// TestSmoke runs every workload end to end with one-second phases, so a
// broken benchmark or a wrong answer from the service fails here.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the service")
	}
	b, err := newBench(root, t.TempDir(), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		res, _, err := b.runWorkload(context.Background(), w, time.Second, time.Second)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkResult(t, w.name, res, endToEnd)
	}
}

// TestTraceSmoke runs one workload traced, which peels every operation
// kind at every boundary.
func TestTraceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the service")
	}
	b, err := newBench(root, t.TempDir(), 3, true)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("churn")
	res, tr, err := b.runWorkload(context.Background(), w, time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, w.name, res, perLayer)
	if len(tr.Peel) == 0 || len(tr.Server) == 0 {
		t.Errorf("traced run recorded %d peel spans and %d server spans", len(tr.Peel), len(tr.Server))
	}
}

func checkResult(t *testing.T, name string, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %+v", name, d.name, m)
		}
	}
}
