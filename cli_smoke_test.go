package xmlsql_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// CLI smoke tests: run each command through `go run` and check the output
// wiring. They are skipped with -short (they compile the binaries).

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCLIXml2sql(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the binary")
	}
	out := runCLI(t, "./cmd/xml2sql", "-workload", "xmark", "-query", "//Item/InCategory/Category", "-classes")
	for _, want := range []string{
		"baseline translation [9] (6 branches, 12 joins)",
		"select IC.category\nfrom   InCat IC",
		"linear class, 6 members",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("xml2sql output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIXml2sqlSchemaFile(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the binary")
	}
	out := runCLI(t, "./cmd/xml2sql", "-schema", "testdata/parts.dsl", "-query", "//Part/Name", "-cross-product")
	if !strings.Contains(out, "cross-product schema") || !strings.Contains(out, "recursive") {
		t.Errorf("xml2sql DSL-file output unexpected:\n%s", out)
	}
}

func TestCLIShredder(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the binary")
	}
	out := runCLI(t, "./cmd/shredder", "-schema", "testdata/library.dsl", "-in", "testdata/library.xml", "-verify", "-dump")
	for _, want := range []string{
		"lossless round trip verified",
		"TABLE Book",
		"'Solaris'",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("shredder output missing %q:\n%s", want, out)
		}
	}
}

// runCLIExpectError runs a command expecting a non-zero exit and returns its
// combined output.
func runCLIExpectError(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go run %v: expected a non-zero exit\n%s", args, out)
	}
	return string(out)
}

func TestCLIXml2sqlAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the binary")
	}
	out := runCLI(t, "./cmd/xml2sql", "-workload", "xmark", "-audit")
	for _, want := range []string{
		"audit of a generated xmark instance",
		"constraint holds: trust unverified -> verified",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("xml2sql -audit output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIXml2sqlAuditCorrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the binary")
	}
	out := runCLI(t, "./cmd/xml2sql", "-workload", "xmark", "-audit", "-corrupt")
	for _, want := range []string{
		"injected an orphan tuple into InCat",
		"[P2] InCat",
		"trust unverified -> violated",
		"safe-mode",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("xml2sql -audit -corrupt output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIXml2sqlRejectsInvalidFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the binary")
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "xmark", "-query", "//Item", "-timeout", "-5s"}, "-timeout must be a positive duration"},
		{[]string{"-workload", "xmark", "-query", "//Item", "-timeout", "0s"}, "-timeout must be a positive duration"},
		{[]string{"-workload", "xmark", "-query", "//Item", "-max-rows", "-1"}, "-max-rows must be >= 0"},
		{[]string{"-workload", "xmark", "-query", "//Item", "-max-cte-iterations", "-2"}, "-max-cte-iterations must be >= 0"},
		{[]string{"-workload", "xmark", "-query", "//Item", "-dialect", "oracle"}, `unknown dialect "oracle"`},
	}
	for _, tc := range cases {
		out := runCLIExpectError(t, append([]string{"./cmd/xml2sql"}, tc.args...)...)
		if !strings.Contains(out, tc.want) {
			t.Errorf("xml2sql %v: output missing %q:\n%s", tc.args, tc.want, out)
		}
	}
}

func TestCLIShredderEdgeWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the binary")
	}
	out := runCLI(t, "./cmd/shredder", "-workload", "s1-edge", "-generate", "-verify")
	if !strings.Contains(out, "lossless round trip verified") {
		t.Errorf("shredder edge output unexpected:\n%s", out)
	}
}

func TestCLIXml2sqlStats(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the binary")
	}
	out := runCLI(t, "./cmd/xml2sql", "-workload", "xmark", "-stats")
	for _, want := range []string{
		`"relations"`,
		`"InCat": `,
		`"total_rows"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("xml2sql -stats output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIXml2sqlExplain(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the binary")
	}
	out := runCLI(t, "./cmd/xml2sql", "-workload", "xmark", "-query", "//Item/InCategory/Category", "-explain", "-execute")
	for _, want := range []string{
		"plan decision (rule: serve the pruned translation unless it fell back",
		"trusted:   plan=pruned [reason: pruned;",
		"safe mode: plan=baseline [reason: safe mode;",
		"results verified equal",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("xml2sql -explain output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "memo") || strings.Contains(out, "parallel") || strings.Contains(out, "estimate") {
		t.Errorf("xml2sql -explain still reports execution knobs or estimates:\n%s", out)
	}
	out = runCLIExpectError(t, "./cmd/xml2sql", "-workload", "xmark", "-explain")
	if !strings.Contains(out, "-explain requires a -query") {
		t.Errorf("xml2sql -explain without -query: missing validation error:\n%s", out)
	}
}

// TestCLIXml2sqlExplainBaselineRetained explains a query over a mapping that
// stores two labels in one relation with nothing to tell them apart: pruning
// cannot establish a safe suffix, so the rule serves the baseline.
func TestCLIXml2sqlExplainBaselineRetained(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the binary")
	}
	dsl := filepath.Join(t.TempDir(), "ambiguous.dsl")
	if err := os.WriteFile(dsl, []byte(`schema ambiguous
root r
node r label=r rel=R0
node a label=a rel=R1 col=val
node b label=b rel=R1 col=val2
edge r -> a
edge r -> b
`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCLI(t, "./cmd/xml2sql", "-schema", dsl, "-query", "//a", "-explain")
	for _, want := range []string{
		"pruning not applicable; baseline retained",
		"trusted:   plan=baseline [reason: fallback;",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("xml2sql -explain (fallback) output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIXmlserveRejectsInvalidFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the binary")
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-tenants", "a=xmark", "-max-conns", "0"}, "-max-conns must be positive"},
		{[]string{"-tenants", "a=xmark", "-rate", "-1"}, "-rate must be positive"},
		{[]string{"-tenants", "a=xmark", "-burst", "0"}, "-burst must be positive"},
		{[]string{"-tenants", "a=xmark", "-max-inflight", "-3"}, "-max-inflight must be positive"},
		{[]string{"-tenants", "a=xmark", "-timeout", "0s"}, "-timeout must be a positive duration"},
		{[]string{"-tenants", "a=xmark", "-drain-timeout", "-1s"}, "-drain-timeout must be a positive duration"},
		{[]string{"-tenants", "a=xmark", "-cache-size", "0"}, "-cache-size must be positive"},
		{[]string{}, "-tenants is required"},
		{[]string{"-tenants", "a=xmark:oracle"}, "unknown backend"},
		{[]string{"-tenants", "a=xmark,a=s1"}, `tenant "a" declared twice`},
	}
	for _, tc := range cases {
		out := runCLIExpectError(t, append([]string{"./cmd/xmlserve"}, tc.args...)...)
		if !strings.Contains(out, tc.want) {
			t.Errorf("xmlserve %v: output missing %q:\n%s", tc.args, tc.want, out)
		}
	}
}

func TestCLIBenchrunnerRejectsInvalidFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the binary")
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-frontend-clients", "0"}, "-frontend-clients must be positive"},
		{[]string{"-frontend-over-clients", "-1"}, "-frontend-over-clients must be positive"},
		{[]string{"-frontend-inflight", "0"}, "-frontend-inflight must be positive"},
		{[]string{"-frontend-duration", "0s"}, "-frontend-duration must be a positive duration"},
		{[]string{"-frontend-over-rate", "-5"}, "-frontend-over-rate must be positive"},
		{[]string{"-frontend-overload-max-p99x", "0"}, "-frontend-overload-max-p99x must be positive"},
		{[]string{"-scale", "0"}, "-scale must be positive"},
	}
	for _, tc := range cases {
		out := runCLIExpectError(t, append([]string{"./cmd/benchrunner"}, tc.args...)...)
		if !strings.Contains(out, tc.want) {
			t.Errorf("benchrunner %v: output missing %q:\n%s", tc.args, tc.want, out)
		}
	}
}

// TestCLIXml2sqlDurableUpdate runs the durable -update path twice over the
// same data directory: the first run initializes and checkpoints it, the
// second recovers the snapshot, replays the first run's logged batch, and
// commits its own on top.
func TestCLIXml2sqlDurableUpdate(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the binary")
	}
	dir := t.TempDir()
	batch := `[{"op":"insert","path":"/Site/Regions/Africa/Item","xml":"<InCategory><Category>cli-durable</Category></InCategory>"}]`

	out := runCLI(t, "./cmd/xml2sql", "-workload", "xmark", "-data-dir", dir, "-update", batch)
	for _, want := range []string{
		"initialized " + dir,
		"incremental audit of the touched neighborhood: clean=true",
		"durably committed: 1 record(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("first durable -update missing %q:\n%s", want, out)
		}
	}

	out = runCLI(t, "./cmd/xml2sql", "-workload", "xmark", "-data-dir", dir, "-fsync", "50ms", "-update", batch)
	for _, want := range []string{
		"recovered " + dir,
		"1 batch(es) replayed",
		"truncated_tail=false",
		// Stats count per-process, so this run logged 1 record; the log
		// position shows both runs' batches.
		"durably committed: 1 record(s)",
		"last seq 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("second durable -update missing %q:\n%s", want, out)
		}
	}
}

// TestCLIDurabilityFlagValidation pins the durability flags' contract on
// both binaries: orphaned or nonsensical values are a usage error (exit 2),
// and a database-backed tenant cannot be pointed at a data directory.
func TestCLIDurabilityFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the binary")
	}
	batch := `[{"op":"delete","path":"//Item"}]`
	dir := t.TempDir()
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"./cmd/xml2sql", "-workload", "xmark", "-update", batch, "-data-dir", "/dev/null/nope"}, "not creatable"},
		{[]string{"./cmd/xml2sql", "-workload", "xmark", "-update", batch, "-fsync", "1s"}, "-fsync requires -data-dir"},
		{[]string{"./cmd/xml2sql", "-workload", "xmark", "-update", batch, "-data-dir", ""}, "-data-dir must not be empty"},
		{[]string{"./cmd/xml2sql", "-workload", "xmark", "-update", batch, "-data-dir", dir, "-fsync", "0s"}, "-fsync must be a positive duration"},
		{[]string{"./cmd/xml2sql", "-workload", "xmark", "-query", "//Item", "-data-dir", dir}, "-data-dir only applies to the -update path"},
		{[]string{"./cmd/xmlserve", "-tenants", "a=xmark", "-fsync", "1s"}, "-fsync requires -data-dir"},
		{[]string{"./cmd/xmlserve", "-tenants", "a=xmark", "-data-dir", "/dev/null/nope"}, "not creatable"},
		{[]string{"./cmd/xmlserve", "-tenants", "a=xmark", "-data-dir", dir, "-fsync", "-1s"}, "-fsync must be a positive duration"},
	}
	for _, tc := range cases {
		out := runCLIExpectError(t, tc.args...)
		if !strings.Contains(out, tc.want) {
			t.Errorf("%v: output missing %q:\n%s", tc.args, tc.want, out)
		}
	}
	out := runCLIExpectError(t, "./cmd/xmlserve", "-addr", "127.0.0.1:0", "-data-dir", t.TempDir(), "-tenants", "a=s1:fakedb")
	if !strings.Contains(out, "-data-dir requires the mem backend") {
		t.Errorf("xmlserve durable fakedb tenant: missing backend rejection:\n%s", out)
	}
}
