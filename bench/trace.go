package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"ipg/internal/obs"
)

// traceOut is what a traced run writes with -spans: the peel's boundary
// spans and the spans the traced server exported over /v1/trace.
type traceOut struct {
	Workload string            `json:"workload"`
	Peel     []span            `json:"peel"`
	Server   []json.RawMessage `json:"server"`
}

// serverSpan is the part of a /v1/trace span the benchmark reads.
type serverSpan struct {
	ID      uint64           `json:"id"`
	Grammar string           `json:"grammar"`
	TotalUS int64            `json:"total_us"`
	Stages  map[string]int64 `json:"stages_us"`
}

// traced is the traced run. It runs the workload at half length against
// an untraced server (latency, capacity, server CPU, the generator's
// lateness and the table counters; also the reference for the tracing
// overhead) and against a server sampling every request, whose spans
// give the time no stage accounts for; then it peels the layers in
// process.
func (r *runner) traced(lightDur, satDur time.Duration, o *oracle) (*values, *traceOut, error) {
	vs := newValues()
	out := &traceOut{Workload: r.w.name}

	ref, err := r.untracedHalf(vs, lightDur/2, satDur/2)
	if err != nil {
		return nil, nil, err
	}

	s, c, _, err := r.boot(true)
	if err != nil {
		return nil, nil, err
	}
	defer s.stop()
	defer c.close()
	var spans []serverSpan
	var last uint64
	collect := func() error {
		b, err := c.get("/v1/trace")
		if err != nil {
			return err
		}
		var tr struct {
			Spans []json.RawMessage `json:"spans"`
		}
		if err := json.Unmarshal(b, &tr); err != nil {
			return err
		}
		newest := last
		for _, raw := range tr.Spans {
			var sp serverSpan
			if err := json.Unmarshal(raw, &sp); err != nil {
				return err
			}
			if sp.ID > last && sp.Grammar == r.w.grammar {
				spans = append(spans, sp)
				out.Server = append(out.Server, raw)
			}
			newest = max(newest, sp.ID)
		}
		last = newest
		return nil
	}
	if err := collect(); err != nil { // skip the warm-up's spans
		return nil, nil, err
	}
	spans, out.Server = nil, nil
	light, err := r.light(c, "light", lightDur/2)
	if err != nil {
		return nil, nil, err
	}
	if err := collect(); err != nil {
		return nil, nil, err
	}
	sat, err := r.saturation(c, "sat", satDur/2)
	if err != nil {
		return nil, nil, err
	}
	if err := collect(); err != nil {
		return nil, nil, err
	}
	var residual []float64
	for _, sp := range spans {
		rest := sp.TotalUS
		for _, d := range sp.Stages {
			rest -= d
		}
		residual = append(residual, float64(rest))
	}
	vs.set("stage.residual_us", mean(residual), fmt.Sprintf("traced server: span total minus its stages, mean of %d spans", len(spans)))
	tp50 := median(light.lightLatencies())
	tcap := windowedCapacity(sat.recs, satDur/2, capacityWindow, r.w.limit)
	vs.set("obs.trace_overhead_pct", 100*(tp50/ref.p50-1), fmt.Sprintf("light p50 %.4g ms traced vs %.4g ms untraced", tp50, ref.p50))
	vs.set("obs.trace_capacity_pct", 100*(1-tcap/ref.capacity), fmt.Sprintf("capacity %.6g/s traced vs %.6g/s untraced", tcap, ref.capacity))

	if err := r.peelLayers(vs, out, o); err != nil {
		return nil, nil, err
	}
	return vs, out, nil
}

// untracedHalf boots an untraced server and runs the workload on it.
func (r *runner) untracedHalf(vs *values, lightDur, satDur time.Duration) (reference, error) {
	s, c, _, err := r.boot(false)
	if err != nil {
		return reference{}, err
	}
	defer s.stop()
	defer c.close()
	return r.load(s, c, vs, lightDur, satDur)
}

// peelLayers runs the in-process peel and derives the layer metrics.
// The workload's reads give the request-path self times; each kind of
// operation gives the metrics of the layers only it reaches. Every kind
// is replayed, from the run's own inputs, so that a traced run prints
// every per-layer row on every workload; the note of a row says which
// kind it came from, and a kind the workload does not send moves none of
// its end-to-end metrics.
func (r *runner) peelLayers(vs *values, out *traceOut, o *oracle) error {
	p, err := newPeel(r.root, o, r.tally)
	if err != nil {
		return err
	}
	defer p.close()
	var res [numKinds]kindResult
	for k := kindParse; k < numKinds; k++ {
		var rp replayer
		switch k {
		case kindParse:
			rp, err = p.parseReplayer(r.in, peelOps)
		case kindDecode:
			rp, err = p.decodeReplayer(r.in, peelOps)
		case kindEdit:
			rp, err = p.editReplayer(r.in, peelOps)
		default:
			rp, err = p.updateReplayer(r.in, peelOps)
		}
		if err != nil {
			return err
		}
		res[k] = p.replay(k, rp)
		note := fmt.Sprintf("peel of %d %s ops", rp.n, k)
		if !r.w.sends(k) {
			note += ", a kind this workload does not send"
		}
		r.notePeel(vs, k, res[k], note)
	}
	out.Peel = p.spans

	own := res[r.w.readKind].layers
	note := fmt.Sprintf("peel of %d %s ops", len(own[layerServe].us), r.w.readKind)
	vs.set("http.self_us", own[layerHTTP].med()-own[layerServe].med(), note)
	vs.set("http.resp_bytes", own[layerServe].bytes, note)
	vs.set("serve.self_us", own[layerServe].med()-own[layerRegistry].med(), note)
	vs.set("serve.allocs_per_req", own[layerServe].medAllocs()-own[layerRegistry].medAllocs(), note)
	vs.set("registry.self_us", own[layerRegistry].med()-own[layerTokenize].med()-own[layerEngine].med(), note)
	vs.set("registry.allocs_per_req", own[layerRegistry].medAllocs()-own[layerTokenize].medAllocs()-own[layerEngine].medAllocs(), note)
	vs.set("earley.sets_reused_ratio", p.reused/max(p.reused+p.rebuilt, 1), vs.note["earley.reparse_us"])
	if _, ok := vs.v["update_p50_ms"]; !ok { // no writer in the light phase
		vs.set("update_p50_ms", res[kindUpdate].layers[layerHTTP].med()/1000, "peel HTTP boundary: "+vs.note["stage.repair_us"])
	}
	return nil
}

// notePeel sets the metrics of the layers only kind k reaches.
func (r *runner) notePeel(vs *values, k opKind, kr kindResult, note string) {
	l := kr.layers
	switch k {
	case kindParse:
		vs.set("glr.recognize_us", l[layerRecognize].med(), note)
		vs.set("forest.build_us", l[layerEngine].med()-l[layerRecognize].med(), note)
		vs.set("isg.tokenize_us", l[layerTokenize].med(), note)
		vs.set("stage.tokenize_us", kr.stages[obs.StageTokenize], note)
		vs.set("stage.table_us", kr.stages[obs.StageTable], note)
		vs.set("stage.forest_us", kr.stages[obs.StageForest], note)
		vs.set("stage.admit_us", kr.stages[obs.StageAdmit], note)
	case kindDecode:
		vs.set("engine.cursor_step_us", l[layerEngine].med(), note)
		vs.set("stage.complete_us", kr.stages[obs.StageComplete], note)
	case kindEdit:
		vs.set("glr.reparse_us", l[layerEngine].med(), note)
		vs.set("earley.reparse_us", l[layerEarley].med(), note)
		vs.set("stage.reuse_us", kr.stages[obs.StageReuse], note)
	case kindUpdate:
		vs.set("stage.repair_us", kr.stages[obs.StageRepair], note)
	}
}

// writeTrace writes the traced run's spans to path.
func writeTrace(path string, outs []*traceOut) error {
	b, err := json.Marshal(outs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
