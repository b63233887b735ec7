package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// setupBoots is how many times an untraced run boots the server to
// measure setup_s. A boot takes tens of milliseconds, so many boots cost
// little and steady the median.
const setupBoots = 16

// capacityWindow is the width of the saturation phase's capacity
// windows.
const capacityWindow = time.Second

// rssEvery is how often the saturation phase samples the server's
// resident set. rss_mb is the median of the samples: the peak (VmHWM)
// depends on which garbage collection came late and varied four times
// as much from run to run.
const rssEvery = 250 * time.Millisecond

// runner runs one workload against freshly booted servers.
type runner struct {
	ctx   context.Context
	root  string
	bin   string
	w     workload
	in    *inputs
	tally *tally
}

// boot starts a server and makes one warm-up pass over the workload's
// distinct inputs. The setup time runs from exec until the pass ends,
// so it includes lazy table generation.
func (r *runner) boot(traced bool) (*server, *client, time.Duration, error) {
	start := time.Now()
	s, err := startServer(r.ctx, r.bin, r.root, traced)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(s.base, r.tally)
	if err := r.warm(c); err != nil {
		c.close()
		s.stop()
		return nil, nil, 0, err
	}
	return s, c, time.Since(start), nil
}

// warm sends each distinct input of the workload once.
func (r *runner) warm(c *client) error {
	switch r.w.name {
	case "decode":
		// The open and the first steps of one cursor. Every episode has at
		// least minTarget steps, so the pass has the same length on every
		// seed; the cursor it leaves open idles until the server evicts it.
		return r.send(c, newDecodeStream(r.in, 0), 1+minTarget)
	case "edit":
		s, err := r.editStream(c, "warm", 0)
		if err != nil {
			return err
		}
		return r.send(c, s, 1)
	}
	for i := range r.in.docs {
		if o := parseOp(&r.in.docs[i]); !c.do(o) {
			return r.failed("warm-up " + o.path)
		}
	}
	if r.w.writerEvery > 0 {
		// Teach the scanner every keyword the writers will use, so the
		// timed phases do not grow it.
		for cl := range 1 + maxConns {
			if err := r.send(c, newUpdateStream(r.in, clientRNG(r.in.seed, "warm", cl), cl), 2*keywordsPerClient); err != nil {
				return err
			}
		}
	}
	return nil
}

// send sends n ops drawn from s, stopping at the first failure.
func (r *runner) send(c *client, s stream, n int) error {
	for range n {
		if o := s.next(); !c.do(o) {
			return r.failed("warm-up " + o.path)
		}
	}
	return nil
}

func (r *runner) failed(what string) error {
	r.tally.mu.Lock()
	defer r.tally.mu.Unlock()
	return fmt.Errorf("%s failed: %s", what, strings.Join(r.tally.failures, "; "))
}

// phase is what one timed phase measured.
type phase struct {
	dur  time.Duration
	open bool
	recs []record
	// cpu is the generator's own CPU time over the phase.
	cpu time.Duration
}

// light runs the light phase: the workload's arrival model at a load
// well below saturation.
func (r *runner) light(c *client, name string, dur time.Duration) (phase, error) {
	p := phase{dur: dur, open: r.w.rate > 0}
	var reads, writer stream
	switch r.w.name {
	case "parse", "churn":
		reads = &parseStream{in: r.in, rng: clientRNG(r.in.seed, name, 0)}
		if r.w.writerEvery > 0 {
			writer = newUpdateStream(r.in, clientRNG(r.in.seed, name+"-writer", 0), 0)
		}
	case "decode":
		reads = newDecodeStream(r.in, 0)
	case "edit":
		s, err := r.editStream(c, name, 0)
		if err != nil {
			return p, err
		}
		reads = s
	}
	cpu0 := selfCPU()
	t0 := time.Now()
	if !p.open {
		p.recs = runClosed(r.ctx, c, reads, r.w.think, 0, t0, dur)
	} else {
		done := make(chan []record, 1)
		if writer != nil {
			go func() { done <- runClosed(r.ctx, c, writer, 0, r.w.writerEvery, t0, dur) }()
		}
		p.recs = runOpen(r.ctx, c, reads, r.w.rate, t0, dur)
		if writer != nil {
			p.recs = append(p.recs, <-done...)
		}
	}
	p.cpu = selfCPU() - cpu0
	return p, r.ctx.Err()
}

// saturation runs two closed-loop clients with no think time.
func (r *runner) saturation(c *client, name string, dur time.Duration) (phase, error) {
	p := phase{dur: dur}
	streams := make([]stream, maxConns)
	for i := range streams {
		switch r.w.name {
		case "parse":
			streams[i] = &parseStream{in: r.in, rng: clientRNG(r.in.seed, name, i)}
		case "churn":
			streams[i] = &churnStream{
				reads:   &parseStream{in: r.in, rng: clientRNG(r.in.seed, name, i)},
				updates: newUpdateStream(r.in, clientRNG(r.in.seed, name+"-writer", i), 1+i),
			}
		case "decode":
			streams[i] = newDecodeStream(r.in, i)
		case "edit":
			s, err := r.editStream(c, name, i)
			if err != nil {
				return p, err
			}
			streams[i] = s
		}
	}
	cpu0 := selfCPU()
	p.recs = runClients(r.ctx, c, streams, time.Now(), dur)
	p.cpu = selfCPU() - cpu0
	return p, r.ctx.Err()
}

// editStream opens a session for client i of a phase.
func (r *runner) editStream(c *client, name string, i int) (*editStream, error) {
	var id string
	if !c.do(sessionOpenOp(r.in, &id)) {
		return nil, r.failed("session open")
	}
	return newEditStream(r.in, clientRNG(r.in.seed, name, i), id), nil
}

// lightLatencies returns the light phase's read latencies in ms.
func (p phase) lightLatencies() []float64 {
	return latenciesMS(p.recs, p.open, func(r record) bool { return !r.update })
}

// updateLatencies returns the rule updates' latencies in ms.
func (p phase) updateLatencies() []float64 {
	return latenciesMS(p.recs, false, func(r record) bool { return r.update })
}

func (p phase) successes() int {
	n := 0
	for _, r := range p.recs {
		if r.ok {
			n++
		}
	}
	return n
}

// endToEnd is the untraced run: the light and saturation phases on one
// server, and setup_s over setupBoots boots. Half the boots come before
// the phases, the last of them serving the phases, and half after: the
// host's speed wanders from one second to the next, and boots at both
// ends of the run steady the median.
func (r *runner) endToEnd(lightDur, satDur time.Duration) (*values, error) {
	vs := newValues()
	var setups []float64
	// boots boots n servers, records their set-up times, and stops all
	// but the last, which it returns.
	boots := func(n int) (*server, *client, error) {
		for b := 1; ; b++ {
			s, c, d, err := r.boot(false)
			if err != nil {
				return nil, nil, err
			}
			setups = append(setups, d.Seconds())
			if b == n {
				return s, c, nil
			}
			c.close()
			s.stop()
		}
	}
	s, c, err := boots(setupBoots / 2)
	if err != nil {
		return nil, err
	}
	_, err = r.load(s, c, vs, lightDur, satDur)
	c.close()
	s.stop()
	if err != nil {
		return nil, err
	}
	if s, c, err = boots(setupBoots - setupBoots/2); err != nil {
		return nil, err
	}
	c.close()
	s.stop()
	vs.set("setup_s", median(setups), fmt.Sprintf("median of %d boots %v", len(setups), fmtFloats(setups, "%.4f")))
	return vs, nil
}

// reference is what load measured that a traced run compares its traced
// server with.
type reference struct {
	p50, capacity float64
}

// load runs the light and saturation phases against the untraced server
// s and sets every metric they give: latency, capacity, the server's CPU
// and memory, the generator's lateness and CPU, and the table counters.
func (r *runner) load(s *server, c *client, vs *values, lightDur, satDur time.Duration) (reference, error) {
	var ref reference
	c0, err := r.counters(c)
	if err != nil {
		return ref, err
	}
	light, err := r.light(c, "light", lightDur)
	if err != nil {
		return ref, err
	}
	lat := sortedCopy(light.lightLatencies())
	tq, tlabel := tailPercentile(len(lat))
	ref.p50 = quantile(lat, 0.5)
	vs.set("p50_ms", ref.p50, fmt.Sprintf("n=%d light-phase requests", len(lat)))
	vs.set("p99_ms", quantile(lat, 0.99), fmt.Sprintf("n=%d; highest supported tail %s = %.4g ms", len(lat), tlabel, quantile(lat, tq)))
	if upd := light.updateLatencies(); len(upd) > 0 {
		vs.set("update_p50_ms", median(upd), fmt.Sprintf("light-phase writer, n=%d", len(upd)))
	}
	var late []float64
	for _, rec := range light.recs {
		late = append(late, ms(rec.late()))
	}
	late = sortedCopy(late)
	vs.set("loadgen.late_p50_ms", quantile(late, 0.5), fmt.Sprintf("light phase, n=%d", len(late)))
	vs.set("loadgen.late_p99_ms", quantile(late, 0.99), fmt.Sprintf("light phase, n=%d", len(late)))
	vs.set("loadgen.cpu_pct", 100*light.cpu.Seconds()/light.dur.Seconds(), "generator CPU over the light phase")

	ticks0, err := s.cpuTicks()
	if err != nil {
		return ref, err
	}
	stopRSS := s.sampleRSS(rssEvery)
	sat, err := r.saturation(c, "sat", satDur)
	rss := stopRSS()
	if err != nil {
		return ref, err
	}
	ticks1, err := s.cpuTicks()
	if err != nil {
		return ref, err
	}
	satLat := sortedCopy(latenciesMS(sat.recs, false, func(record) bool { return true }))
	ref.capacity = windowedCapacity(sat.recs, satDur, capacityWindow, r.w.limit)
	vs.set("capacity_rps", ref.capacity,
		fmt.Sprintf("median of windows %v, limit %v; saturation p50 %.4g ms p99 %.4g ms over %d requests",
			windowCounts(sat.recs, satDur, capacityWindow, r.w.limit), r.w.limit, quantile(satLat, 0.5), quantile(satLat, 0.99), len(satLat)))
	okN := sat.successes()
	cpu := time.Duration(ticks1-ticks0) * clockTick
	vs.set("cpu_us_per_req", us(cpu)/float64(max(okN, 1)), fmt.Sprintf("server CPU %v over %d successes", cpu, okN))
	vs.set("rss_mb", median(rss), fmt.Sprintf("server VmRSS, median of %d samples over the saturation phase", len(rss)))

	c1, err := r.counters(c)
	if err != nil {
		return ref, err
	}
	vs.set("core.states_expanded_setup", c0.StatesExpanded, "after the warm-up pass")
	vs.set("core.states_expanded_steady", c1.StatesExpanded-c0.StatesExpanded, "during both phases")
	calls := c1.ActionCalls - c0.ActionCalls
	hitRatio := 0.0
	if calls > 0 {
		hitRatio = (c1.CacheHitRate*c1.ActionCalls - c0.CacheHitRate*c0.ActionCalls) / calls
	}
	vs.set("core.cache_hit_ratio", hitRatio, fmt.Sprintf("over %.0f table lookups", calls))
	updates := c1.RuleUpdates - c0.RuleUpdates
	inv, reexp := 0.0, 0.0
	if updates > 0 {
		inv = (c1.StatesInvalidated - c0.StatesInvalidated) / updates
		reexp = (c1.StatesExpanded - c0.StatesExpanded) / updates
	}
	vs.set("core.states_invalidated_per_update", inv, fmt.Sprintf("over %.0f rule updates", updates))
	vs.set("core.states_reexpanded_per_update", reexp, fmt.Sprintf("over %.0f rule updates", updates))
	return ref, nil
}

func fmtFloats(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// entryCounters are the table counters GET /v1/grammars/{name} reports.
type entryCounters struct {
	StatesExpanded    float64 `json:"states_expanded"`
	StatesInvalidated float64 `json:"states_invalidated"`
	ActionCalls       float64 `json:"action_calls"`
	CacheHitRate      float64 `json:"cache_hit_rate"`
	RuleUpdates       float64 `json:"rule_updates_total"`
}

func (r *runner) counters(c *client) (entryCounters, error) {
	var ec entryCounters
	b, err := c.get("/v1/grammars/" + r.w.grammar)
	if err == nil {
		err = json.Unmarshal(b, &ec)
	}
	return ec, err
}
