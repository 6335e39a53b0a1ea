// Command benchrunner runs the full experiment suite (E1–E8 of DESIGN.md):
// for every worked example and claim in the paper it compares the baseline
// translation of [9] against the lossless-constraint-aware translation —
// generated SQL shape, verified result equality, exact work and measured
// execution time — and prints the tables recorded in EXPERIMENTS.md.
//
// It also gates the plan rule against every fixed configuration (-adaptive)
// and the serving front end's overload shedding (-frontend) and, with -json,
// writes the whole comparison table as one machine-readable JSON document so
// the perf trajectory can be tracked across PRs.
//
// Usage:
//
//	benchrunner [-scale N] [-backend mem|fakedb] [-details] [-ablations] [-scaling] [-adaptive=false] [-frontend=false] [-json FILE]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"xmlsql/internal/bench"
)

// validateFlags rejects explicitly-set non-positive serving knobs with exit
// status 2, mirroring xml2sql and xmlserve: a zero or negative client count,
// window, or gate is always a mistake, never a request for "unlimited".
func validateFlags() error {
	var err error
	flag.Visit(func(f *flag.Flag) {
		get := func() any { return flag.Lookup(f.Name).Value.(flag.Getter).Get() }
		switch f.Name {
		case "frontend-clients", "frontend-over-clients", "frontend-inflight":
			if v := get().(int); v <= 0 {
				err = fmt.Errorf("-%s must be positive, got %d", f.Name, v)
			}
		case "frontend-duration":
			if v := get().(time.Duration); v <= 0 {
				err = fmt.Errorf("-%s must be a positive duration, got %v", f.Name, v)
			}
		case "frontend-overload-max-p99x", "frontend-over-rate":
			if v := get().(float64); v <= 0 {
				err = fmt.Errorf("-%s must be positive, got %v", f.Name, v)
			}
		case "scale":
			if v := get().(int); v <= 0 {
				err = fmt.Errorf("-%s must be positive, got %d", f.Name, v)
			}
		}
	})
	return err
}

func main() {
	scale := flag.Int("scale", 1, "document size multiplier")
	details := flag.Bool("details", false, "print per-query SQL details")
	ablations := flag.Bool("ablations", false, "also run the design-choice ablations")
	scaling := flag.Bool("scaling", false, "also run the Q1 speedup-vs-size scaling series")
	adaptive := flag.Bool("adaptive", true, "also run the plan-rule suite (pruned unless it fell back, baseline otherwise, vs fixed configurations; fails when the served plan does more work than a fixed configuration or a case's upper-quartile speedup is below 1.0)")
	frontend := flag.Bool("frontend", true, "also run the serving front-end suite (closed-loop clients against live HTTP/line listeners, under-capacity and overload)")
	frontendClients := flag.Int("frontend-clients", 4, "closed-loop client count for the under-capacity front-end runs")
	frontendOverClients := flag.Int("frontend-over-clients", 16, "closed-loop client count for the overload front-end runs")
	frontendInFlight := flag.Int("frontend-inflight", 2, "in-flight admission bound of the overloaded front-end tenant")
	frontendOverRate := flag.Float64("frontend-over-rate", 200, "token-bucket queries/second of the overloaded front-end tenant (its capacity)")
	frontendDuration := flag.Duration("frontend-duration", 400*time.Millisecond, "measurement window per front-end run")
	frontendGate := flag.Float64("frontend-overload-max-p99x", 2.0, "fail if the overload run's accepted-query p99 exceeds this multiple of the matching under-capacity p99 (also fails on any shed at under-capacity load)")
	backendName := flag.String("backend", "mem", "where measured queries run: mem (in-memory engine) or fakedb (database/sql over the in-repo fake driver)")
	jsonPath := flag.String("json", "", "write the comparison table as JSON to this file (\"-\" for stdout)")
	flag.Parse()

	if err := validateFlags(); err != nil {
		fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
		os.Exit(2)
	}

	sc := bench.DefaultScale()
	sc.ItemsPerContinent *= *scale
	sc.AdsPerSection *= *scale
	sc.S1Groups *= *scale
	sc.S2Groups *= *scale

	cmps, err := bench.RunSuiteOn(sc, *backendName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("Experiment suite: baseline [9] vs lossless-from-XML translation")
	fmt.Printf("(scale %d: %d items/continent, %d ads/section; backend %s)\n\n",
		*scale, sc.ItemsPerContinent, sc.AdsPerSection, *backendName)
	fmt.Print(bench.FormatTable(cmps))
	fmt.Println()
	fmt.Print(bench.Summary(cmps))

	var e8 []*bench.Comparison
	for _, c := range cmps {
		if c.Experiment == "E8" {
			e8 = append(e8, c)
		}
	}
	fmt.Printf("E8 subset (stands in for the [10] XMark+ADEX evaluation): %s", bench.Summary(e8))

	var adp []*bench.AdaptiveComparison
	if *adaptive {
		adp, err = bench.RunAdaptive(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: adaptive: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(bench.FormatAdaptive(adp))
		if errs := bench.AdaptiveGate(adp); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "benchrunner: ADAPTIVE GATE: %v\n", e)
			}
			os.Exit(1)
		}
	}

	var fe []*bench.FrontendComparison
	if *frontend {
		fe, err = bench.RunFrontend(bench.FrontendConfig{
			Duration:     *frontendDuration,
			UnderClients: *frontendClients,
			OverClients:  *frontendOverClients,
			OverInFlight: *frontendInFlight,
			OverRate:     *frontendOverRate,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: frontend: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(bench.FormatFrontend(fe))
		if errs := bench.FrontendGate(fe, *frontendGate); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "benchrunner: FRONTEND GATE: %v\n", e)
			}
			os.Exit(1)
		}
	}

	var scl *bench.ScalingSection
	if *scaling {
		const scalingQuery = "//Item/InCategory/Category"
		pts, err := bench.ScalingSeries(scalingQuery, []int{1, 2, 4, 8, 16})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: scaling: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(bench.FormatScaling(scalingQuery, pts))
		scl = &bench.ScalingSection{Query: scalingQuery, Points: pts}
	}

	if *jsonPath != "" {
		report := bench.BuildReport("xmlsql", *scale, cmps, bench.Sections{
			Adaptive: adp, Frontend: fe, Scaling: scl,
		})
		out := os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := report.WriteJSON(out); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: writing json: %v\n", err)
			os.Exit(1)
		}
	}

	if *details {
		fmt.Println()
		fmt.Print(bench.FormatDetails(cmps))
	}
	if *ablations {
		fmt.Println()
		abl, err := bench.RunAblations(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: ablations: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(abl)
	}
	for _, c := range cmps {
		if !c.Verified {
			fmt.Fprintf(os.Stderr, "benchrunner: VERIFICATION FAILED for %s %s\n", c.Experiment, c.Query)
			os.Exit(1)
		}
	}
}
