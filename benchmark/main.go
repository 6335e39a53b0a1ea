// Command benchmark is the repository's benchmark: five workloads that drive
// the system through its public entry points only (xmlsql.Planner, the
// internal/server listeners on loopback, internal/sharded, internal/wal),
// check every answer against direct evaluation on the XML documents, and
// report client-observed metrics; a second, traced run times the calls into
// each layer from outside. See README.md in this directory.
//
//	go run ./benchmark                        all workloads, untraced and traced
//	go run ./benchmark -workload hot-line     one workload, untraced
//	go run ./benchmark -workload hot-line -trace 1 -spans spans.jsonl
//	go run ./benchmark -out a.json; go run ./benchmark -out b.json
//	go run ./benchmark -compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all five, each in its own process)")
		seed     = flag.Int64("seed", 1, "seed of documents, query sets and schedules")
		seconds  = flag.Float64("seconds", 20, "measured seconds per run, cut into ten windows")
		trace    = flag.Int("trace", 0, "1 = the traced run, which reports the per-layer metrics")
		out      = flag.String("out", "", "write the results to this JSON file")
		spans    = flag.String("spans", "", "traced run: write the spans to this file, one JSON object per line")
		cmp      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		smoke    = flag.Bool("smoke", false, "all workloads in this process with 50 ms windows, a check that everything runs")
	)
	flag.Parse()

	switch {
	case *cmp:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		a, err := readReport(flag.Arg(0))
		die(err)
		b, err := readReport(flag.Arg(1))
		die(err)
		if bad := compare(os.Stdout, a, b); bad > 0 {
			os.Exit(1)
		}
	case *workload == "":
		secs := *seconds
		if *smoke {
			secs = smokeSeconds
		}
		rep, err := runAll(os.Stdout, *seed, secs, *smoke, *spans)
		die(err)
		if *out != "" {
			die(writeJSON(*out, rep))
		}
		js, _ := jsonIndent(rep)
		fmt.Println(js)
		for _, r := range rep.Results {
			if !r.Correct {
				os.Exit(1)
			}
		}
	default:
		tmp, err := scratchDir()
		die(err)
		res, err := runWorkload(runConfig{
			workload: *workload, seed: *seed, seconds: *seconds, traced: *trace != 0,
			tmp: tmp, spans: *spans, log: os.Stdout,
		})
		die(err)
		res.print(os.Stdout)
		if *out != "" {
			die(writeJSON(*out, &report{Machine: res.Machine, Results: []*result{res}}))
		}
		if !res.Correct {
			fmt.Fprintln(os.Stderr, "benchmark: wrong answers:", res.Error)
			os.Exit(1)
		}
		// The driver reads this line, the last of standard output.
		fmt.Println(res.contractLine())
	}
}

// smokeSeconds is the measured time of a -smoke run.
const smokeSeconds = 0.5

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// scratchDir is where data directories and child results go: inside the
// working directory, under the build directory .gitignore names.
func scratchDir() (string, error) {
	dir := filepath.Join(".bench_build", "tmp")
	return dir, os.MkdirAll(dir, 0o755)
}

// runAll runs every workload untraced and traced. Each run is a child
// process of its own, so that set-up time, peak memory and heap state belong
// to one workload; inProcess (the smoke path and the tests) runs them here
// instead, with one set-up each.
func runAll(log io.Writer, seed int64, seconds float64, inProcess bool, spans string) (*report, error) {
	tmp, err := scratchDir()
	if err != nil {
		return nil, err
	}
	rep := &report{Machine: thisMachine()}
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w.name, seed: seed, seconds: seconds, traced: traced, tmp: tmp, log: log}
			if traced && spans != "" {
				cfg.spans = spans + "." + w.name
			}
			var res *result
			if inProcess {
				cfg.setups = 1
				if res, err = runWorkload(cfg); err != nil {
					return nil, fmt.Errorf("%s: %w", w.name, err)
				}
				res.print(log)
			} else if res, err = runChild(log, cfg); err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			rep.Results = append(rep.Results, res)
		}
	}
	return rep, nil
}

// runChild runs one workload in a child process and reads its result file.
func runChild(log io.Writer, cfg runConfig) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(cfg.tmp, "result-*.json")
	if err != nil {
		return nil, err
	}
	f.Close()
	defer os.Remove(f.Name())
	traceArg := "0"
	if cfg.traced {
		traceArg = "1"
	}
	args := []string{"-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'f', -1, 64), "-trace", traceArg, "-out", f.Name()}
	if cfg.spans != "" {
		args = append(args, "-spans", cfg.spans)
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = log, os.Stderr
	runErr := cmd.Run()
	child, err := readReport(f.Name())
	if err != nil || len(child.Results) != 1 {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("child wrote no result: %v", err)
	}
	// A child that found wrong answers exits non-zero but still reports.
	return child.Results[0], nil
}
