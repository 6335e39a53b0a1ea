package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// The -smoke path: every workload, untraced and traced, with 50 ms windows
// and one set-up, including the oracle, the final checks and the spans.
func TestSmoke(t *testing.T) {
	for _, w := range workloadDefs {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, traced := range []bool{false, true} {
				cfg := runConfig{workload: w.name, seed: 1, seconds: smokeSeconds, traced: traced, tmp: t.TempDir(), setups: 1, log: io.Discard}
				if traced {
					cfg.spans = cfg.tmp + "/spans.jsonl"
				}
				res, err := runWorkload(cfg)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d: %s", traced, res.Correct, res.Attempted, res.Failed, res.Error)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("traced=%v: metric %s missing or in unit %q, want %q", traced, d.Name, m.Unit, d.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want a positive value", d.Name, m.Value)
					}
				}
				var line map[string]any
				if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil || len(line) != 4 {
					t.Errorf("contract line %s: %v", res.contractLine(), err)
				}
				if traced {
					if data, err := os.ReadFile(cfg.spans); err != nil || !strings.Contains(string(data), `"name":"pathid.build"`) {
						t.Errorf("span file: %v", err)
					}
				}
			}
		})
	}
}
