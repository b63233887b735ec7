// Command bench is the service benchmark of ipg. It builds
// ./cmd/ipg-serve, boots it as a child process and drives one of four
// traffic workloads (parse, decode, edit, churn) over loopback HTTP,
// checking every reply against an independent Earley oracle. The result
// of an untraced run holds the end-to-end metrics, that of a traced run
// the per-layer metrics; -compare sets two files of runs side by side.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload parse --seed 1 --seconds 24 --trace 0
//	bash bench/run.sh -trace 1 -spans spans.json
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//
// run.sh builds this program into .bench_build and passes its arguments
// on. The last line of standard output is the run's result as one JSON
// object; -out appends it, with the workload and seed, to a file of runs
// that -compare reads. See bench/README.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

// traceFlag is a boolean flag that takes its value as a separate
// argument, so both -trace 1 and --trace 0 parse.
type traceFlag bool

func (t *traceFlag) String() string { return strconv.FormatBool(bool(*t)) }

func (t *traceFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*t = traceFlag(v)
	return err
}

func run() int {
	name := flag.String("workload", "all", "workload to run: parse, decode, edit, churn or all")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 24, "measured seconds per run: half light phase, half saturation phase (halved again for each server of a traced run)")
	var traced traceFlag
	flag.Var(&traced, "trace", "1 = traced run: the result holds the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", "", "append each run's result, with workload and seed, as a JSON line to this file")
	spans := flag.String("spans", "", "traced runs: write the recorded spans to this file")
	compare := flag.Bool("compare", false, "compare two files of runs given as arguments (parent, then change)")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants two files of runs: parent, then change")
			return 2
		}
		if err := compareRuns(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		return 0
	}
	if flag.NArg() != 0 || *seconds < 2 {
		flag.Usage()
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// ipg-serve is built beside this program's own binary, which run.sh
	// places in the build directory.
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := newBench(root, filepath.Dir(self), *seed, bool(traced))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	phase := time.Duration(*seconds) * time.Second / 2
	code := 0
	var outs []*traceOut
	for _, w := range selected {
		res, tr, err := b.runWorkload(ctx, w, phase, phase)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 2
		}
		if tr != nil {
			outs = append(outs, tr)
		}
		if !res.Correct {
			code = 1
		}
		if *out != "" {
			if err := appendRecord(*out, runRecord{Workload: w.name, Seed: *seed, Trace: bool(traced), result: res}); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
		}
	}
	if *spans != "" {
		if err := writeTrace(*spans, outs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	return code
}

// findRoot walks up from the working directory to the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "ipg-serve")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (a directory holding cmd/ipg-serve) here or above")
		}
		dir = parent
	}
}

// bench is what every workload of a run shares: the server binary, the
// oracle and the generated inputs.
type bench struct {
	root, bin string
	traced    bool
	oracle    *oracle
	in        *inputs
}

// newBench builds ipg-serve into buildDir and generates the run's inputs
// from seed.
func newBench(root, buildDir string, seed uint64, traced bool) (*bench, error) {
	bin, err := buildServer(root, buildDir)
	if err != nil {
		return nil, err
	}
	o, err := newOracle(root)
	if err != nil {
		return nil, err
	}
	in, err := genInputs(root, seed, o)
	if err != nil {
		return nil, err
	}
	return &bench{root: root, bin: bin, traced: traced, oracle: o, in: in}, nil
}

// runWorkload runs one workload, prints its report and result line, and
// returns the result (and, for a traced run, its spans).
func (b *bench) runWorkload(ctx context.Context, w workload, lightDur, satDur time.Duration) (result, *traceOut, error) {
	r := &runner{ctx: ctx, root: b.root, bin: b.bin, w: w, in: b.in, tally: &tally{}}
	var vs *values
	var tr *traceOut
	var err error
	defs := endToEnd
	if b.traced {
		defs = perLayer
		vs, tr, err = r.traced(lightDur, satDur, b.oracle)
	} else {
		vs, err = r.endToEnd(lightDur, satDur)
	}
	if err != nil {
		return result{}, nil, err
	}
	for _, f := range r.tally.failures {
		fmt.Fprintln(os.Stderr, "bench: failure:", f)
	}
	res, err := vs.result(defs, r.tally.attempted.Load(), r.tally.failed.Load())
	if err != nil {
		return result{}, nil, err
	}
	vs.report(os.Stdout, fmt.Sprintf("%s (seed %d, %d requests, %d failed)", w.name, b.in.seed, res.Attempted, res.Failed))
	line, err := jsonLine(res)
	if err != nil {
		return result{}, nil, err
	}
	fmt.Println(line)
	return res, tr, nil
}
