package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func spec(id string, f func(ctx context.Context, p Params) (Result, error)) Spec {
	return Spec{
		WorkloadID: id,
		Desc:       "test workload " + id,
		Space:      []Param{{Name: "n", Default: "1", Doc: "size"}},
		RunFunc:    f,
	}
}

func echo(id string) Spec {
	return spec(id, func(_ context.Context, p Params) (Result, error) {
		n, err := p.Int("n", 1)
		if err != nil {
			return Result{}, err
		}
		return Result{
			WorkloadID: id,
			Text:       fmt.Sprintf("%s n=%d quick=%v\n", id, n, p.Quick),
		}, nil
	})
}

func TestRegistryRegisterLookup(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(echo("a/one")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(echo("a/two")); err != nil {
		t.Fatal(err)
	}
	w, err := r.Lookup("a/one")
	if err != nil {
		t.Fatal(err)
	}
	if w.ID() != "a/one" {
		t.Fatalf("lookup returned %q", w.ID())
	}
	// Case-insensitive, like the old core.RunExperiment.
	if w, err = r.Lookup("A/ONE"); err != nil || w.ID() != "a/one" {
		t.Fatalf("case-insensitive lookup: %v, %v", w, err)
	}
}

func TestRegistryDuplicateAndEmptyID(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(echo("dup")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(echo("dup")); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := r.Register(echo("  ")); err == nil {
		t.Fatal("blank ID accepted")
	}
}

func TestRegistryUnknownListsIDs(t *testing.T) {
	r := NewRegistry()
	for _, id := range []string{"b", "a"} {
		if err := r.Register(echo(id)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := r.Lookup("zzz")
	if err == nil {
		t.Fatal("unknown ID accepted")
	}
	for _, want := range []string{"zzz", "a", "b"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

func TestRegistryOrderExhibitsFirst(t *testing.T) {
	r := NewRegistry()
	for _, id := range []string{"nren/storm", "E10", "app/cg", "E2", "E1", "linpack/delta"} {
		if err := r.Register(echo(id)); err != nil {
			t.Fatal(err)
		}
	}
	got := r.IDs()
	want := []string{"E1", "E2", "E10", "app/cg", "linpack/delta", "nren/storm"}
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
	all := r.All()
	for i, w := range all {
		if w.ID() != want[i] {
			t.Fatalf("All()[%d] = %s, want %s", i, w.ID(), want[i])
		}
	}
}

func TestParamsHelpers(t *testing.T) {
	p := Params{}.WithValue("n", "42").WithValue("rate", "2.5")
	if v := p.Value("missing", "def"); v != "def" {
		t.Fatalf("Value default = %q", v)
	}
	n, err := p.Int("n", 0)
	if err != nil || n != 42 {
		t.Fatalf("Int = %d, %v", n, err)
	}
	f, err := p.Float("rate", 0)
	if err != nil || f != 2.5 {
		t.Fatalf("Float = %g, %v", f, err)
	}
	if _, err := p.WithValue("n", "xyz").Int("n", 0); err == nil {
		t.Fatal("bad int accepted")
	}
	// WithValue must not mutate the receiver.
	base := Params{Values: map[string]string{"n": "1"}}
	_ = base.WithValue("n", "2")
	if base.Values["n"] != "1" {
		t.Fatal("WithValue mutated receiver")
	}
}

func TestSweepParallelMatchesSequential(t *testing.T) {
	var jobs []Job
	for i := 0; i < 40; i++ {
		jobs = append(jobs, Job{
			Workload: echo(fmt.Sprintf("w%02d", i)),
			Params:   Params{Seed: int64(i)}.WithValue("n", fmt.Sprint(i)),
		})
	}
	seq, err := LocalExecutor{Workers: 1}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := LocalExecutor{Workers: 8}.Execute(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) || len(seq) != len(jobs) {
		t.Fatalf("lengths: seq %d par %d", len(seq), len(par))
	}
	var a, b strings.Builder
	for i := range seq {
		a.WriteString(seq[i].Text)
		b.WriteString(par[i].Text)
	}
	if a.String() != b.String() {
		t.Fatalf("parallel output differs from sequential:\n%s\n---\n%s", a.String(), b.String())
	}
}

func TestSweepFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	var jobs []Job
	for i := 0; i < 16; i++ {
		i := i
		jobs = append(jobs, Job{Workload: spec(fmt.Sprintf("w%d", i),
			func(context.Context, Params) (Result, error) {
				if i == 3 || i == 11 {
					return Result{}, boom
				}
				return Result{Text: "ok"}, nil
			})})
	}
	_, err := LocalExecutor{Workers: 4}.Execute(context.Background(), jobs, nil)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *JobError, got %T", err)
	}
	if je.Index != 3 {
		t.Fatalf("first error index = %d, want 3", je.Index)
	}
}

func TestSweepContextCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	var jobs []Job
	for i := 0; i < 64; i++ {
		jobs = append(jobs, Job{Workload: spec(fmt.Sprintf("w%d", i),
			func(c context.Context, _ Params) (Result, error) {
				started <- struct{}{}
				<-c.Done()
				return Result{}, c.Err()
			})})
	}
	go func() {
		<-started // at least one job is running
		cancel()
	}()
	_, err := LocalExecutor{Workers: 2}.Execute(ctx, jobs, nil)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := len(started); n >= 64 {
		t.Fatalf("all %d jobs started despite cancellation", n)
	}
}

func TestSweepEmptyAndDefaults(t *testing.T) {
	res, err := LocalExecutor{}.Execute(context.Background(), nil, nil)
	if err != nil || res != nil {
		t.Fatalf("empty sweep: %v, %v", res, err)
	}
	// workers<1 falls back to DefaultWorkers and still completes.
	res, err = LocalExecutor{}.Execute(context.Background(), []Job{{Workload: echo("solo")}}, nil)
	if err != nil || len(res) != 1 {
		t.Fatalf("default workers sweep: %v, %v", res, err)
	}
	if res[0].WorkloadID != "solo" {
		t.Fatalf("WorkloadID = %q", res[0].WorkloadID)
	}
}

func TestSweepValues(t *testing.T) {
	res, err := LocalExecutor{Workers: 3}.Execute(context.Background(),
		ValueJobs(echo("sv"), Params{}, "n", []string{"1", "2", "3"}), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"n=1", "n=2", "n=3"} {
		if !strings.Contains(res[i].Text, want) {
			t.Fatalf("result %d = %q, want %s", i, res[i].Text, want)
		}
	}
}

// Regression test for the partial-result ambiguity: a failed sweep used
// to return a full-length slice whose unfinished slots held zero-value
// Result{} placeholders, indistinguishable from real results — a persist
// path could store them. Now only the longest fully-completed prefix
// comes back.
func TestSweepFailureReturnsOnlyCompletedPrefix(t *testing.T) {
	boom := errors.New("boom")
	var jobs []Job
	for i := 0; i < 8; i++ {
		i := i
		jobs = append(jobs, Job{Workload: spec(fmt.Sprintf("w%d", i),
			func(context.Context, Params) (Result, error) {
				if i == 2 {
					return Result{}, boom
				}
				return Result{Text: fmt.Sprintf("ok %d\n", i)}, nil
			})})
	}
	results, err := LocalExecutor{Workers: len(jobs)}.Execute(context.Background(), jobs, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("want the completed prefix [0,2), got %d results", len(results))
	}
	for i, r := range results {
		if r.WorkloadID != fmt.Sprintf("w%d", i) || r.Text == "" {
			t.Fatalf("result %d is not the real job result: %+v", i, r)
		}
	}
}

func TestLocalExecutorEmitStreamsInOrder(t *testing.T) {
	var jobs []Job
	for i := 0; i < 30; i++ {
		jobs = append(jobs, Job{Workload: echo(fmt.Sprintf("e%02d", i))})
	}
	var seen []int
	emit := func(i int, r Result) {
		if r.WorkloadID != fmt.Sprintf("e%02d", i) {
			t.Errorf("emit %d got result for %s", i, r.WorkloadID)
		}
		seen = append(seen, i) // emit is serialized by contract: no lock needed
	}
	results, err := LocalExecutor{Workers: 8}.Execute(context.Background(), jobs, emit)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) || len(seen) != len(jobs) {
		t.Fatalf("results %d, emitted %d, want %d", len(results), len(seen), len(jobs))
	}
	for i, got := range seen {
		if got != i {
			t.Fatalf("emit order %v not ascending", seen)
		}
	}
}

func TestSpecMetricDirsStamped(t *testing.T) {
	s := Spec{
		WorkloadID: "dir/test",
		MetricDirs: map[string]string{"score": DirLower, "rate": DirHigher},
		RunFunc: func(context.Context, Params) (Result, error) {
			r := Result{Text: "x\n"}
			r.AddMetric("score", 10, "")
			r.AddMetric("rate", 5, "MB/s")
			r.AddMetric("other", 1, "")
			r.Metrics = append(r.Metrics, Metric{Name: "score", Value: 2, Dir: DirHigher})
			return r, nil
		},
	}
	res, err := s.Run(context.Background(), Params{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{DirLower, DirHigher, "", DirHigher}
	for i, m := range res.Metrics {
		if m.Dir != want[i] {
			t.Fatalf("metric %d (%s) Dir = %q, want %q", i, m.Name, m.Dir, want[i])
		}
	}
}

func TestResultJSON(t *testing.T) {
	r := Result{WorkloadID: "x", Title: "T", Text: "body\n"}
	r.AddMetric("gflops", 13.0, "GFLOPS")
	s, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"workload": "x"`, `"gflops"`, `"GFLOPS"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("JSON missing %s:\n%s", want, s)
		}
	}
}
