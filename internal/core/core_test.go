package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

func TestNewProgramAssembled(t *testing.T) {
	p := NewProgram()
	if p.Machine.Nodes() != 528 {
		t.Fatalf("machine nodes = %d", p.Machine.Nodes())
	}
	if p.Network.Nodes() < 10 {
		t.Fatalf("network too small: %d", p.Network.Nodes())
	}
	if len(p.Budget) != 8 || len(p.Agencies) != 8 {
		t.Fatalf("budget %d / agencies %d, want 8/8", len(p.Budget), len(p.Agencies))
	}
}

func TestSevenExperimentsOrdered(t *testing.T) {
	exps := NewProgram().Experiments()
	if len(exps) != 7 {
		t.Fatalf("%d experiments, want 7", len(exps))
	}
	for i, e := range exps {
		wantID := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7"}[i]
		if e.ID != wantID {
			t.Fatalf("experiment %d has ID %s, want %s", i, e.ID, wantID)
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestRunExperimentUnknownID(t *testing.T) {
	_, err := NewProgram().RunExperiment("E99")
	if err == nil || !strings.Contains(err.Error(), "E99") {
		t.Fatalf("want unknown-experiment error, got %v", err)
	}
}

func TestRunExperimentCaseInsensitive(t *testing.T) {
	out, err := NewProgram().RunExperiment("e1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "654.8") {
		t.Fatalf("E1 output missing total:\n%s", out)
	}
}

func TestE1ContainsPaperNumbers(t *testing.T) {
	out, err := NewProgram().RunExperiment("E1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DARPA", "232.2", "654.8", "802.9", "Growth"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E1 missing %q:\n%s", want, out)
		}
	}
}

func TestE2MatrixShape(t *testing.T) {
	out, err := NewProgram().RunExperiment("E2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"HPCS", "ASTA", "NREN", "BRHR", "EPA"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E2 missing %q", want)
		}
	}
}

func TestE3PeakNumbers(t *testing.T) {
	out, err := NewProgram().RunExperiment("E3")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"528", "32.0 GFLOPS", "16 x 33"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E3 missing %q:\n%s", want, out)
		}
	}
}

func TestE4QuickRuns(t *testing.T) {
	p := NewProgram()
	p.Quick = true
	out, err := p.RunExperiment("E4")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"GFLOPS", "2048", "Paper's measured rate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E4 missing %q:\n%s", want, out)
		}
	}
}

func TestE5NetworkExhibit(t *testing.T) {
	out, err := NewProgram().RunExperiment("E5")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CASA HIPPI/SONET", "NSFnet T3", "Caltech", "log scale"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E5 missing %q:\n%s", want, out)
		}
	}
}

func TestE6E7QuickScaling(t *testing.T) {
	p := NewProgram()
	p.Quick = true
	for _, id := range []string{"E6", "E7"} {
		out, err := p.RunExperiment(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(out, "Speedup") || !strings.Contains(out, "16") {
			t.Fatalf("%s output wrong:\n%s", id, out)
		}
	}
}

// writeReport regenerates every exhibit of p into a string through the
// report's job list on a local pool of the given size.
func writeReport(t *testing.T, ctx context.Context, p *Program, workers int) string {
	t.Helper()
	results, err := p.ReportResultsExec(ctx, harness.LocalExecutor{Workers: workers}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResults(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestWriteReportQuick(t *testing.T) {
	p := NewProgram()
	p.Quick = true
	out := writeReport(t, context.Background(), p, 1)
	for _, e := range p.Experiments() {
		if !strings.Contains(out, "=== "+e.ID+":") {
			t.Fatalf("report missing %s", e.ID)
		}
	}
}

func TestWriteReportJobsByteIdentical(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{2, 4, 0} { // 0 = one per host core
		p := NewProgram()
		p.Quick = true
		if writeReport(t, ctx, p, 1) != writeReport(t, ctx, p, workers) {
			t.Fatalf("report with %d workers differs from sequential", workers)
		}
	}
}

func TestExhibitsRegisteredWithHarness(t *testing.T) {
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7"} {
		w, err := harness.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		if w.Description() == "" {
			t.Fatalf("%s has no description", id)
		}
	}
	// Running through the registry reproduces the Program path's text.
	w, err := harness.Lookup("E1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(context.Background(), harness.Params{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewProgram().RunExperiment("E1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Text != want {
		t.Fatal("registry-path E1 text differs from Program path")
	}
	if res.Paper == "" || res.Title == "" {
		t.Fatalf("registry result missing exhibit metadata: %+v", res)
	}
}

func TestReportResultsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := NewProgram()
	p.Quick = true
	_, err := p.ReportResultsExec(ctx, harness.LocalExecutor{Workers: 2}, nil)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestE4CancelStopsMidRun: cancelling the job ctx while full-size E4 runs
// stops the simulation instead of finishing it. E4 takes about a second
// on a 2-core host, so a run that ignored ctx would return its table.
func TestE4CancelStopsMidRun(t *testing.T) {
	w, err := harness.Lookup("E4")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stop := time.AfterFunc(20*time.Millisecond, cancel)
	defer stop.Stop()
	start := time.Now()
	res, err := w.Run(ctx, harness.Params{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("E4 returned %v (text %d bytes), want context.Canceled", err, len(res.Text))
	}
	t.Logf("E4 stopped %v after start", time.Since(start))
}

// TestSimulatingExhibitsHonourCtx: E4, E6 and E7 hand the job ctx to
// their simulations, so a cancelled ctx ends each with ctx's error even
// past the exhibit's own up-front check.
func TestSimulatingExhibitsHonourCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := NewProgram()
	for _, c := range []struct {
		id  string
		run func(context.Context, *Program) (string, error)
	}{{"E4", runE4}, {"E6", runE6}, {"E7", runE7}} {
		if _, err := c.run(ctx, p); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", c.id, err)
		}
	}
}
