package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// tmp is a directory the run may write below (data directories).
	tmp string
	// spans, when set, is where the traced run writes its spans.
	spans string
	// setups, when positive, fixes how often set-up is repeated.
	setups int
	// log receives progress and the metric table.
	log io.Writer
}

// windows is how many windows the measured time is cut into; the reported
// value of a per-window metric is the median over them. Interference on a
// shared machine comes in episodes of a second or two; with ten windows
// the median stays in the undisturbed ones.
const windows = 10

// Set-up is repeated and its median reported: at least minSetups times, and
// up to maxSetups while they have taken less than setupBudget together.
const (
	minSetups   = 3
	maxSetups   = 40
	setupBudget = 2 * time.Second
)

func warmUp(seconds float64) time.Duration {
	w := time.Duration(seconds * 0.1 * float64(time.Second))
	if w > 2*time.Second {
		w = 2 * time.Second
	}
	return w
}

// runWorkload sets the workload up, checks it against the oracle, measures
// it and checks it again. The error return is for runs that could not be
// made; wrong answers are in the result.
func runWorkload(cfg runConfig) (*result, error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	// Go before 1.25 sizes GOMAXPROCS from the host, not the container's
	// quota; say what is used.
	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx := context.Background()
	res := &result{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Clients: numClients(), Metrics: map[string]metric{}, Machine: thisMachine(),
	}
	tmp, err := os.MkdirTemp(cfg.tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var tr *tracer
	var setupSpans *spanBuf
	if cfg.traced {
		tr = newTracer()
		setupSpans = tr.buf()
	}

	// Set-up: generate, shred, load, listen, until the first correct answer.
	var e *env
	var setups []float64
	var spent time.Duration
	for i := 0; ; i++ {
		dir := filepath.Join(tmp, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		if e, err = setUp(w, cfg.seed, dir, setupSpans); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		err = e.firstAnswer(ctx)
		took := time.Since(t0)
		if err != nil {
			e.close()
			return fail(res, fmt.Errorf("first answer: %w", err)), nil
		}
		setups = append(setups, took.Seconds())
		spent += took
		n := i + 1
		if cfg.setups > 0 && n >= cfg.setups {
			break
		}
		if cfg.setups == 0 && (n >= maxSetups || (n >= minSetups && spent >= setupBudget)) {
			break
		}
		if err := e.close(); err != nil {
			return nil, fmt.Errorf("closing set-up %d: %w", i, err)
		}
		os.RemoveAll(dir)
	}
	defer e.close()

	res.Digest = e.in.digest()
	if want, pinned := pinnedDigests[w.name]; cfg.seed == 1 && pinned && want != res.Digest {
		return nil, fmt.Errorf("input digest of %s at seed 1 is %s, pinned %s: the generated load changed", w.name, res.Digest, want)
	}

	checked, err := e.oracle(ctx)
	res.Attempted += checked
	if err != nil {
		return fail(res, fmt.Errorf("oracle: %w", err)), nil
	}
	fmt.Fprintf(cfg.log, "%s: set up %d times, %d queries agree with the reference, digest %.12s\n",
		w.name, len(setups), checked, res.Digest)
	debug.FreeOSMemory()

	total := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.traced {
		if err := tracedRun(ctx, cfg, e, tr, res, total, len(setups)); err != nil {
			return nil, err
		}
	} else {
		before := e.counters(ctx)
		lr, err := runLoop(ctx, e, warmUp(cfg.seconds), total/windows, windows, false, nil)
		if err != nil {
			return nil, err
		}
		if err := w.checkHitRatio(before, e.counters(ctx)); err != nil {
			return fail(res, err), nil
		}
		res.Attempted += lr.attempted
		res.Failed += lr.failed
		if lr.firstErr != nil {
			res.Error = lr.firstErr.Error()
		}
		res.Metrics["setup_s"] = windowed(setups, "s")
		res.Metrics["ops_per_s"] = windowed(lr.opsPerSecond(), "1/s")
		isQuery := func(c int) bool { return c != e.updateClass }
		p50, _ := lr.latency(0.5, isQuery)
		res.Metrics["query_p50_us"] = windowed(p50, "us")
		tail, beyond := lr.latency(w.tailQ, isQuery)
		tm := windowed(tail, "us")
		tm.Note = fmt.Sprintf("p%.0f", 100*w.tailQ)
		if beyond < 10 {
			tm.Note += fmt.Sprintf(", only %d samples beyond it in some class and window", beyond)
		}
		res.Metrics["query_p99_us"] = tm
		res.Metrics["rss_peak_mb"] = windowed(lr.rssMB(), "MB")
	}

	if err := e.finalChecks(ctx); err != nil {
		return fail(res, fmt.Errorf("final checks: %w", err)), nil
	}
	if cfg.traced {
		// Known only after the data directory was reopened.
		res.Metrics["wal.recover_ms"] = metric{Value: e.recoverMs, Unit: "ms"}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// fail marks a result wrong: the failed check counts as one failed attempt.
func fail(res *result, err error) *result {
	res.Attempted++
	res.Failed++
	res.Correct = false
	res.Error = err.Error()
	return res
}
