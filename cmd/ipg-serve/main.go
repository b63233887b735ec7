// ipg-serve runs the concurrent parse service: an HTTP/JSON front end
// over the grammar registry, where every registered grammar owns one
// shared, lazily generated parse table that all concurrent requests
// reuse, and rule updates splice into the table instead of rebuilding
// it.
//
// Usage:
//
//	ipg-serve [-addr :8080] [-grammar name=path ...] [-engine auto]
//	          [-snapshot-dir dir] [-snapshot-interval 5m]
//	          [-snapshot-retries n] [-snapshot-retry-backoff d]
//	          [-max-parses n] [-max-forest-nodes n] [-rate r] [-burst n]
//	          [-session-max n] [-session-tokens n] [-session-idle 10m]
//	          [-parse-timeout d] [-drain-timeout 5s]
//	          [-breaker-threshold n] [-breaker-cooldown 10s]
//	          [-mem-budget bytes] [-shed-factor f] [-max-body bytes]
//	          [-log-level info] [-log-json]
//	          [-trace-sample n] [-trace-slow d] [-trace-ring n]
//	          [-pprof] [-fault site=kind,... ...]
//
// Each -grammar flag preloads a grammar file at startup (.sdf files load
// as SDF definitions, anything else as plain BNF). -engine picks the
// default parsing backend per registered grammar — glr (default), lalr,
// ll, earley, or auto, which probes each grammar once, at registration,
// and records why it chose what (rule updates keep that backend);
// registrations over HTTP may override it per grammar. With
// -snapshot-dir the service persists each grammar's lazily generated
// parse table — on shutdown, every -snapshot-interval, and on POST
// /v1/snapshot — and a restarted service resumes the saved tables
// instead of re-earning them parse by parse (stale or corrupt snapshots
// fall back to cold generation; engines without persistable tables are
// skipped). Interval and shutdown snapshots also compact the directory,
// removing files for grammars explicitly unregistered over DELETE
// (never for grammars merely not yet re-registered after a restart, so
// warm restarts survive).
// -max-parses, -max-forest-nodes, -rate and -burst set per-grammar
// admission control so a warm, heavily loaded service stays protected.
//
// Document sessions (POST /v1/grammars/{name}/sessions, PATCH
// /v1/sessions/{id}) hold a parsed document server-side so editors
// ship token splices instead of whole documents; Earley-backed
// grammars reparse incrementally, reusing every item set left of the
// edit. -session-max caps open sessions (excess 429), -session-tokens
// caps a session's document size (413), and -session-idle evicts
// sessions whose editor went away (a janitor sweeps at a quarter of
// the timeout).
//
// Observability: the service always exposes GET /metrics (Prometheus
// text format), /healthz (liveness) and /readyz (readiness). The
// listener binds before the preload: while grammars and snapshot
// restores load, /healthz answers 200 and /readyz 503, and /readyz
// flips ready once the preload has published every table.
// Logs are structured (log/slog); -log-level picks the floor (debug
// logs every request) and -log-json switches to JSON lines.
// -trace-sample N records every Nth parse's lifecycle — tokenize,
// admit, table/chart work, forest build, render — into a ring served
// by GET /v1/trace; -trace-slow D additionally retains every parse at
// least that slow, sampled or not, and logs it.
// -pprof exposes the net/http/pprof endpoints under /debug/pprof/ and
// labels engine calls with (grammar, engine) pprof labels so profiles
// attribute samples per tenant (off by default: labeling costs
// per-parse allocations).
//
// Fault tolerance: -parse-timeout bounds each parse's engine time —
// overruns abort mid-drive at the engines' cancellation checkpoints
// and answer 504; client disconnects abort the same way. A panicking
// grammar trips its circuit breaker after -breaker-threshold
// consecutive panics and is quarantined (503 + Retry-After) for
// -breaker-cooldown before a half-open probe may close it again.
// -mem-budget sheds new work (429) while the estimated retained memory
// of tables and session charts exceeds the budget; -shed-factor
// enables the adaptive p99 load shedder (shed while the latest
// window's p99 exceeds factor × the healthy baseline). On SIGTERM the
// service drains: /readyz flips unready, new work is refused with 503,
// in-flight parses get -drain-timeout to finish and are then
// force-canceled; tables are snapshotted and sessions closed before
// exit. A SIGTERM during the preload stops it after the grammar being
// loaded and drains the same way. -snapshot-retries re-attempts failed
// snapshot writes with doubling backoff. -fault arms the deterministic
// fault-injection harness (chaos testing; repeatable):
// site=kind[,d=DUR][,at=N][,n=N], e.g. -fault drive.token=delay,d=1ms
// or -fault dispatch.parse=panic,n=3.
// Example session:
//
//	ipg-serve -grammar calc=testdata/Calc.sdf -snapshot-dir /var/lib/ipg \
//	          -trace-sample 100 -trace-slow 50ms &
//	curl -s localhost:8080/v1/grammars
//	curl -s -X POST localhost:8080/v1/grammars/calc/parse \
//	     -d '{"input":"1 + 2 * 3","trees":true}'
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/v1/trace
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ipg/internal/engine"
	"ipg/internal/faultinject"
	"ipg/internal/obs"
	"ipg/internal/registry"
	"ipg/internal/serve"
	"ipg/internal/snapshot"
)

// grammarFlags collects repeated -grammar name=path flags.
type grammarFlags []string

func (g *grammarFlags) String() string { return strings.Join(*g, ",") }

func (g *grammarFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*g = append(*g, v)
	return nil
}

// faultFlags collects repeated -fault site=kind[,opts] flags and arms
// them immediately (validation happens at flag-parse time, so a typo
// fails startup instead of silently never firing).
type faultFlags []string

func (f *faultFlags) String() string { return strings.Join(*f, ",") }

func (f *faultFlags) Set(v string) error {
	site, fault, err := faultinject.Parse(v)
	if err != nil {
		return err
	}
	faultinject.Set(site, fault)
	*f = append(*f, v)
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	var grammars grammarFlags
	flag.Var(&grammars, "grammar", "preload a grammar: name=path (repeatable; .sdf = SDF definition)")
	engineName := flag.String("engine", "", "default parsing backend per grammar: glr, lalr, ll, earley or auto ('' = glr)")
	snapDir := flag.String("snapshot-dir", "", "persist parse-table snapshots here; restart resumes them ('' = disabled)")
	snapEvery := flag.Duration("snapshot-interval", 0, "also snapshot all grammars on this interval (0 = only on shutdown and POST /v1/snapshot)")
	maxParses := flag.Int("max-parses", 0, "per-grammar max concurrent parses; excess gets 429 (0 = unlimited)")
	maxForest := flag.Int("max-forest-nodes", 0, "per-grammar max parse-forest nodes, counting leaves, rule nodes and ambiguity nodes (one per span with two or more derivations); larger parses get 429 (0 = unlimited)")
	rate := flag.Float64("rate", 0, "per-grammar sustained parse requests per second; excess gets 429 (0 = unthrottled)")
	burst := flag.Int("burst", 0, "per-grammar request burst on top of -rate (0 = max(1, rate))")
	maxBatch := flag.Int("max-batch", serve.DefaultMaxBatchInputs, "max sentences per batch request")
	sessionMax := flag.Int("session-max", 256, "max concurrently open document sessions; excess gets 429 (0 = unlimited)")
	sessionTokens := flag.Int("session-tokens", 1<<20, "max tokens per session document; larger gets 413 (0 = unlimited)")
	sessionIdle := flag.Duration("session-idle", 10*time.Minute, "evict sessions untouched this long (0 = never)")
	completeMax := flag.Int("complete-max", 1024, "max concurrently open completion cursors; excess gets 429 (0 = unlimited)")
	completeTokens := flag.Int("complete-tokens", 1<<16, "max tokens per completion cursor; longer prefixes get 413 (0 = unlimited)")
	completeIdle := flag.Duration("complete-idle", 5*time.Minute, "evict completion cursors untouched this long (0 = never)")
	parseTimeout := flag.Duration("parse-timeout", 0, "abort parses running longer than this mid-drive and answer 504 (0 = unbounded)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "on SIGTERM, let in-flight requests finish this long before force-canceling them")
	brkThreshold := flag.Int("breaker-threshold", 3, "quarantine a grammar after this many consecutive engine panics (0 = breaker off)")
	brkCooldown := flag.Duration("breaker-cooldown", 10*time.Second, "how long a tripped grammar stays quarantined before a half-open probe")
	memBudget := flag.Int64("mem-budget", 0, "global retained-memory budget in bytes; new work gets 429 while the estimate exceeds it (0 = unlimited)")
	shedFactor := flag.Float64("shed-factor", 0, "shed load while the p99 latency window exceeds this factor times the healthy baseline (0 = shedder off; must be > 1)")
	shedMinSamples := flag.Uint64("shed-min-samples", 256, "ignore latency windows with fewer requests than this when deciding to shed")
	shedDropPer := flag.Int("shed-drop-per", 4, "while shedding, reject one request in this many (4 = 25% of load)")
	maxBody := flag.Int64("max-body", serve.DefaultMaxBodyBytes, "max request body bytes; larger gets 413")
	snapRetries := flag.Int("snapshot-retries", 2, "re-attempt failed snapshot writes this many times with doubling backoff")
	snapRetryBackoff := flag.Duration("snapshot-retry-backoff", 100*time.Millisecond, "initial backoff between snapshot write retries (doubles per attempt, capped at 1s)")
	var faults faultFlags
	flag.Var(&faults, "fault", "arm a deterministic fault: site=kind[,d=DUR][,at=N][,n=N] (repeatable; chaos testing)")
	logLevel := flag.String("log-level", "info", "log floor: debug (logs every request), info, warn or error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON lines instead of key=value text")
	traceSample := flag.Int("trace-sample", 0, "record every Nth parse's lifecycle span for GET /v1/trace (0 = sampling off)")
	traceSlow := flag.Duration("trace-slow", 0, "always retain and log parses at least this slow, sampled or not (0 = off)")
	traceRing := flag.Int("trace-ring", 0, "retained-span ring size (0 = default 256)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ and label engine calls with (grammar, engine) for per-tenant profiles")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	logger := obs.NewLogger(os.Stderr, level, *logJSON)
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	kind, err := engine.ParseKind(*engineName)
	if err != nil {
		fatal("bad -engine", "err", err)
	}

	reg := registry.New()
	reg.SetLogger(logger)
	reg.SetProfileLabels(*pprofOn)
	reg.SetDefaultEngine(kind)
	reg.SetDefaultLimits(registry.Limits{
		MaxConcurrentParses: *maxParses,
		MaxForestNodes:      *maxForest,
		RatePerSec:          *rate,
		Burst:               *burst,
	})
	reg.SetSessionLimits(registry.SessionLimits{
		MaxSessions:  *sessionMax,
		MaxDocTokens: *sessionTokens,
		IdleTimeout:  *sessionIdle,
	})
	reg.SetCompletionLimits(registry.CompletionLimits{
		MaxCursors:      *completeMax,
		MaxPrefixTokens: *completeTokens,
		IdleTimeout:     *completeIdle,
	})
	reg.SetBreakerConfig(registry.BreakerConfig{
		Threshold: *brkThreshold,
		Cooldown:  *brkCooldown,
	})
	reg.SetMemoryBudget(*memBudget)
	reg.SetSnapshotRetry(*snapRetries, *snapRetryBackoff)
	if len(faults) > 0 {
		logger.Warn("fault injection armed (chaos testing)", "faults", faults.String())
	}
	if *snapDir != "" {
		store, err := snapshot.NewStore(*snapDir)
		if err != nil {
			fatal("snapshot store", "err", err)
		}
		reg.SetSnapshotStore(store)
		logger.Info("snapshots enabled", "dir", store.Dir())
	}

	front := serve.New(reg)
	front.SetMaxBatchInputs(*maxBatch)
	front.SetMaxBodyBytes(*maxBody)
	front.SetParseTimeout(*parseTimeout)
	front.SetLogger(logger)
	if *traceSample > 0 || *traceSlow > 0 {
		front.SetTracer(obs.NewTracer(obs.TracerConfig{
			SampleEvery:   *traceSample,
			SlowThreshold: *traceSlow,
			RingSize:      *traceRing,
		}))
		logger.Info("parse tracing enabled",
			"sample_every", *traceSample, "slow_threshold", *traceSlow)
	}

	handler := front.Handler()
	if *pprofOn {
		// Mount the pprof handlers explicitly (not via the DefaultServeMux
		// side effect), so only -pprof exposes them: production hot spots
		// stay observable with `go tool pprof host:port/debug/pprof/profile`
		// without profiling being open by default.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		logger.Info("pprof enabled", "path", "/debug/pprof/", "profile_labels", true)
	}
	// baseCtx underlies every request context. Canceling it at the end
	// of a timed-out drain fires every in-flight parse's cancellation
	// flag (reason shutdown), so stuck parses abort at their next
	// checkpoint instead of holding the process open.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		MaxHeaderBytes:    1 << 20,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	// The signal context comes first: a SIGTERM or SIGINT that arrives
	// while grammars load stops the preload and drains, like one that
	// arrives later.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Bind and serve before the preload, so that /healthz answers and
	// /readyz reports 503 while grammars and snapshots load.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen failed", "addr", *addr, "err", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	logger.Info("ipg-serve listening", "addr", ln.Addr().String())

	for _, spec := range grammars {
		if ctx.Err() != nil {
			logger.Info("preload interrupted", "loaded", reg.Len(), "requested", len(grammars))
			break
		}
		name, path, _ := strings.Cut(spec, "=")
		src, err := os.ReadFile(path)
		if err != nil {
			fatal("preload failed", "grammar", name, "err", err)
		}
		form := registry.FormRules
		if strings.HasSuffix(path, ".sdf") {
			form = registry.FormSDF
		}
		e, err := reg.Register(name, registry.Spec{Source: string(src), Form: form})
		if err != nil {
			fatal("preload failed", "grammar", name, "err", err)
		}
		how := "cold"
		if e.Stats().Restored {
			how = "warm (snapshot resumed)"
		}
		logger.Info("loaded grammar", "grammar", name, "path", path,
			"engine", e.EngineKind().String(), "reason", e.Stats().EngineReason, "table", how)
	}
	if ctx.Err() == nil {
		// Every preloaded table (including snapshot restores) is
		// published: the instance can take traffic.
		front.MarkReady()
		logger.Info("ipg-serve ready", "grammars", reg.Len())
	}

	if *snapDir != "" && *snapEvery > 0 {
		ticker := time.NewTicker(*snapEvery)
		go func() {
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if n, err := reg.SnapshotAll(); err != nil {
						logger.Warn("periodic snapshot", "saved", n, "err", err)
					} else if n > 0 {
						logger.Info("periodic snapshot", "saved", n)
					}
					// Compact: drop snapshot files whose grammars have
					// been unregistered since the last pass.
					if removed, err := reg.SnapshotGC(); err != nil {
						logger.Warn("snapshot gc", "err", err)
					} else if len(removed) > 0 {
						logger.Info("snapshot gc", "removed", removed)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	shortestIdle := *sessionIdle
	if *completeIdle > 0 && (shortestIdle <= 0 || *completeIdle < shortestIdle) {
		shortestIdle = *completeIdle
	}
	if shortestIdle > 0 {
		// Janitor: reclaim documents whose editor went away and
		// completion cursors whose decoder stopped asking.
		janitor := time.NewTicker(min(max(shortestIdle/4, time.Second), time.Minute))
		go func() {
			defer janitor.Stop()
			for {
				select {
				case now := <-janitor.C:
					if n, m := reg.EvictIdleSessions(now), reg.EvictIdleCompletions(now); n+m > 0 {
						logger.Info("evicted idle leases", "sessions", n, "cursors", m)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	if *memBudget > 0 || *shedFactor > 1 {
		// Resilience ticker: refresh the retained-memory estimate and
		// advance the p99 load shedder over the latency histograms.
		shedCfg := registry.ShedConfig{
			Factor:     *shedFactor,
			MinSamples: *shedMinSamples,
			DropPer:    *shedDropPer,
		}
		ticker := time.NewTicker(5 * time.Second)
		go func() {
			defer ticker.Stop()
			wasShedding := false
			for {
				select {
				case <-ticker.C:
					if *memBudget > 0 {
						reg.RefreshMemoryUsage()
					}
					shedding := reg.ShedTick(shedCfg)
					if shedding != wasShedding {
						if shedding {
							logger.Warn("load shedding engaged",
								"drop_per", *shedDropPer, "factor", *shedFactor)
						} else {
							logger.Info("load shedding disengaged")
						}
						wasShedding = shedding
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal("serve failed", "err", err)
		}
	case <-ctx.Done():
		// Graceful drain: stop routing (readiness) and admitting (drain
		// flag), give in-flight requests the drain timeout to finish,
		// then force-cancel the stragglers through the base context —
		// their cancellation flags fire with reason shutdown and the
		// engines abort at the next checkpoint.
		logger.Info("draining", "timeout", *drainTimeout)
		front.MarkNotReady()
		reg.SetDraining(true)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("drain timeout: force-canceling in-flight parses", "err", err)
			cancelBase()
			if err := srv.Close(); err != nil {
				logger.Warn("server close", "err", err)
			}
		}
		if *snapDir != "" {
			if n, err := reg.SnapshotAll(); err != nil {
				logger.Warn("shutdown snapshot", "saved", n, "err", err)
			} else {
				logger.Info("shutdown snapshot: restart resumes the saved tables", "saved", n)
			}
			if removed, err := reg.SnapshotGC(); err != nil {
				logger.Warn("snapshot gc", "err", err)
			} else if len(removed) > 0 {
				logger.Info("snapshot gc", "removed", removed)
			}
		}
		if n, m := reg.CloseAllSessions(), reg.CloseAllCompletions(); n+m > 0 {
			logger.Info("closed leases", "sessions", n, "cursors", m)
		}
		logger.Info("drain complete")
	}
}
