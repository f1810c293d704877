package cli

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
)

// run invokes the CLI and returns (stdout, stderr, exit code).
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := Main(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestReportParallelByteIdentical(t *testing.T) {
	seq, _, code := run(t, "report", "-quick", "-j", "1")
	if code != 0 {
		t.Fatalf("sequential report exit %d", code)
	}
	par, _, code := run(t, "report", "-quick", "-j", "8")
	if code != 0 {
		t.Fatalf("parallel report exit %d", code)
	}
	if seq != par {
		t.Fatal("report -j 8 output differs from -j 1")
	}
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7"} {
		if !strings.Contains(seq, "=== "+id+":") {
			t.Fatalf("report missing %s", id)
		}
	}
}

func TestReportSingleExperimentMatchesCore(t *testing.T) {
	out, _, code := run(t, "report", "-e", "E1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	want, err := core.NewProgram().RunExperiment("E1")
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Fatalf("CLI E1 differs from core.RunExperiment:\n%q\n%q", out, want)
	}
}

func TestListShowsEveryRegisteredWorkload(t *testing.T) {
	out, _, code := run(t, "list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range harness.IDs() {
		if !strings.Contains(out, id) {
			t.Fatalf("list missing %q", id)
		}
	}
	// The registry must hold the exhibits plus every ported family.
	for _, id := range []string{"E4", "app/cfd-stencil", "app/shallow-water", "app/nbody-ring",
		"app/nas-ep", "app/poisson-cg", "linpack/delta", "linpack/sweep-nb",
		"linpack/generations", "nren/storm", "nren/traffic", "mesh/saturation"} {
		if !strings.Contains(out, id) {
			t.Fatalf("list missing expected workload %q", id)
		}
	}
}

func TestListJSONDecodes(t *testing.T) {
	out, _, code := run(t, "list", "-json")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var entries []struct {
		ID          string `json:"id"`
		Description string `json:"description"`
	}
	if err := json.Unmarshal([]byte(out), &entries); err != nil {
		t.Fatalf("list -json invalid: %v", err)
	}
	if len(entries) != len(harness.IDs()) {
		t.Fatalf("list -json has %d entries, registry has %d", len(entries), len(harness.IDs()))
	}
}

func TestRunWorkloadBothArgOrders(t *testing.T) {
	a, _, code := run(t, "run", "app/poisson-cg", "-quick")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	b, _, code := run(t, "run", "-quick", "app/poisson-cg")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if a != b || !strings.Contains(a, "Poisson CG") {
		t.Fatalf("run outputs differ or wrong:\n%q\n%q", a, b)
	}
}

func TestRunJSONCarriesMetrics(t *testing.T) {
	out, _, code := run(t, "run", "app/nas-ep", "-quick", "-json")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var res harness.Result
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("run -json invalid: %v", err)
	}
	if res.WorkloadID != "app/nas-ep" || len(res.Metrics) == 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	_, errOut, code := run(t, "run", "no/such-thing")
	if code != 1 || !strings.Contains(errOut, "no/such-thing") {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
}

func TestRunParamOverride(t *testing.T) {
	out, _, code := run(t, "run", "app/cfd-stencil", "-quick", "-p", "iters=3")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "Iterations") || !strings.Contains(out, "3") {
		t.Fatalf("override not applied:\n%s", out)
	}
}

func TestSweepParamValuesOrdered(t *testing.T) {
	out, _, code := run(t, "sweep", "linpack/delta", "-quick",
		"-param", "nb", "-values", "8,32", "-j", "2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	i8 := strings.Index(out, "2048   8")
	i32 := strings.Index(out, "2048  32")
	if i8 < 0 || i32 < 0 || i8 > i32 {
		t.Fatalf("sweep points missing or out of order:\n%s", out)
	}
}

func TestSweepIDsSubset(t *testing.T) {
	out, _, code := run(t, "sweep", "-ids", "E1,nren/link-classes", "-quick")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "=== E1:") || !strings.Contains(out, "=== nren/link-classes:") {
		t.Fatalf("sweep -ids output wrong:\n%s", out)
	}
}

// The legacy tool subcommands are gone; each TestLegacy* test runs the
// run or sweep invocation that replaces one of them (README.md lists the
// mapping) with the old test's assertions.

// TestLegacyLinpackQuickConfig: `hpcc linpack -n 1024 -pr 2 -pc 4`.
func TestLegacyLinpackQuickConfig(t *testing.T) {
	out, _, code := run(t, "run", "linpack/delta", "-p", "n=1024", "-p", "pr=2", "-p", "pc=4")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "1024") || !strings.Contains(out, "2x4") {
		t.Fatalf("linpack output wrong:\n%s", out)
	}
}

// TestLegacyDeltaSmallMesh: `hpcc delta -rows 4 -cols 4 -packets 5`.
func TestLegacyDeltaSmallMesh(t *testing.T) {
	out, _, code := run(t, "run", "mesh/saturation", "-p", "rows=4", "-p", "cols=4", "-p", "packets=5")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "mesh 4x4, 16 nodes") {
		t.Fatalf("delta output wrong:\n%s", out)
	}
}

// TestLegacyNrenLinkClasses: `hpcc nren`.
func TestLegacyNrenLinkClasses(t *testing.T) {
	out, _, code := run(t, "sweep", "-ids", "nren/link-classes,nren/transfer-matrix")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"CASA HIPPI/SONET", "Regional 56 kbps", "Caltech"} {
		if !strings.Contains(out, want) {
			t.Fatalf("nren output missing %q", want)
		}
	}
}

// TestRunLinpackReal: real=true factors real numbers on the simulated
// grid and appends the residual check to the table; -json carries it as
// a lower-is-better metric.
func TestRunLinpackReal(t *testing.T) {
	args := []string{"run", "linpack/delta", "-p", "real=true", "-p", "n=768", "-p", "pr=2", "-p", "pc=4"}
	out, errOut, code := run(t, args...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"LINPACK\n", "768  16   2x4", "\nnormalized residual: 0.017\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("real-mode output missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "normalized residual: 0.017\n") {
		t.Fatalf("residual line is not last:\n%s", out)
	}
	js, _, code := run(t, append(args, "-json")...)
	if code != 0 {
		t.Fatalf("-json exit %d", code)
	}
	var res harness.Result
	if err := json.Unmarshal([]byte(js), &res); err != nil {
		t.Fatal(err)
	}
	m, ok := res.Metric("residual")
	if !ok || m.Dir != harness.DirLower || m.Value <= 0 || m.Value > 1 {
		t.Fatalf("residual metric = %+v (present %v), want a small lower-is-better value", m, ok)
	}
	if res.Text != out {
		t.Fatalf("-json text differs from the text output:\n%q\n%q", res.Text, out)
	}
}

// TestRunLinpackRealRefused: real=true at the default order N=25000 hits
// the N=4096 cap before anything runs, and real takes only booleans.
func TestRunLinpackRealRefused(t *testing.T) {
	_, errOut, code := run(t, "run", "linpack/delta", "-p", "real=true")
	if code != 1 || !strings.Contains(errOut, "capped at N=4096 (got 25000); lower the n parameter") {
		t.Fatalf("real at N=25000: exit %d, stderr %q", code, errOut)
	}
	_, errOut, code = run(t, "run", "linpack/delta", "-quick", "-p", "real=maybe")
	if code != 1 || !strings.Contains(errOut, `real="maybe"`) {
		t.Fatalf("real=maybe: exit %d, stderr %q", code, errOut)
	}
}

// TestRunLinpackRealFalseIsDefault: real=false is the phantom run,
// byte for byte.
func TestRunLinpackRealFalseIsDefault(t *testing.T) {
	want, _, code := run(t, "run", "linpack/delta", "-quick", "-json")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	got, _, code := run(t, "run", "linpack/delta", "-quick", "-json", "-p", "real=false")
	if code != 0 {
		t.Fatalf("real=false exit %d", code)
	}
	if got != want {
		t.Fatalf("real=false differs from the default:\n%s\n---\n%s", got, want)
	}
}

// TestUnknownCommandUsage: an unknown command — the removed tool
// subcommands included — exits 2 with the usage text.
func TestUnknownCommandUsage(t *testing.T) {
	for _, name := range []string{"frobnicate", "linpack", "nren", "delta", "funding"} {
		_, errOut, code := run(t, name)
		if code != 2 || !strings.Contains(errOut, "usage: hpcc") {
			t.Fatalf("%s: exit %d, stderr %q", name, code, errOut)
		}
	}
	_, errOut, code := run(t)
	if code != 2 || !strings.Contains(errOut, "usage: hpcc") {
		t.Fatalf("no-args exit %d, stderr %q", code, errOut)
	}
}
