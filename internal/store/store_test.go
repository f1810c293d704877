package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/report"
)

func testResult(id string, gflops float64) harness.Result {
	r := harness.Result{WorkloadID: id, Title: "t-" + id, Text: "body of " + id + "\n"}
	r.AddMetric("gflops", gflops, "GFLOPS")
	r.AddMetric("simulated-s", 100/gflops, "s")
	return r
}

func mustAppend(t *testing.T, s *Store, meta Meta, entries ...Entry) string {
	t.Helper()
	runID, err := s.Append(meta, entries)
	if err != nil {
		t.Fatal(err)
	}
	return runID
}

func at(sec int) time.Time {
	return time.Date(2026, 7, 28, 12, 0, sec, 0, time.UTC)
}

// TestRoundTripByteIdentical: a Result written to the store and read back
// marshals to byte-identical JSON — the store does not lossily transform
// what the harness produced.
func TestRoundTripByteIdentical(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	params := harness.Params{Quick: true, Seed: 3}
	params = params.WithValue("nb", "16").WithValue("n", "25000")
	res := testResult("linpack/delta", 13.9)
	res.Paper = "13.9 GFLOPS on the full Delta"

	before, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, Meta{Commit: "abc1234def", Tag: "seed", Time: at(0)},
		Entry{Params: params, Result: res})

	snap, err := s.Resolve("latest")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Records) != 1 {
		t.Fatalf("got %d records, want 1", len(snap.Records))
	}
	rec := snap.Records[0]
	after, err := json.Marshal(rec.Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Errorf("result JSON changed through the store:\nbefore %s\nafter  %s", before, after)
	}
	if rec.Key != PointKey("linpack/delta", params) {
		t.Errorf("record key %q != PointKey %q", rec.Key, PointKey("linpack/delta", params))
	}
	if rec.ParamsKey != params.Canonical() {
		t.Errorf("params key %q != canonical %q", rec.ParamsKey, params.Canonical())
	}
	if rec.Commit != "abc1234def" || rec.Tag != "seed" || rec.Schema != Schema {
		t.Errorf("metadata not preserved: %+v", rec)
	}
}

// TestKeyStableUnderInsertionOrder: the same parameter point built in two
// map orders lands on one key, so runs pair up across snapshots.
func TestKeyStableUnderInsertionOrder(t *testing.T) {
	a := harness.Params{}.WithValue("n", "512").WithValue("nb", "8").WithValue("procs", "64")
	b := harness.Params{}.WithValue("procs", "64").WithValue("nb", "8").WithValue("n", "512")
	if PointKey("w", a) != PointKey("w", b) {
		t.Errorf("keys differ for identical params: %q vs %q", PointKey("w", a), PointKey("w", b))
	}
	if PointKey("w", a) == PointKey("x", a) {
		t.Error("different workloads share a key")
	}
}

func TestResolveRefs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := harness.Params{}
	r1 := mustAppend(t, s, Meta{Commit: "aaaa1111bbbb", Time: at(1)}, Entry{Params: p, Result: testResult("w", 10)})
	r2 := mustAppend(t, s, Meta{Commit: "cccc2222dddd", Tag: "release", Time: at(2)}, Entry{Params: p, Result: testResult("w", 11)})
	r3 := mustAppend(t, s, Meta{Commit: "cccc2222dddd", Time: at(3)}, Entry{Params: p, Result: testResult("w", 12)})

	if r1 == r2 || r2 == r3 || r1 == r3 {
		t.Fatalf("run IDs must be distinct: %s %s %s", r1, r2, r3)
	}
	cases := []struct {
		ref  string
		want string
	}{
		{"latest", r3},
		{"", r3},
		{"latest~1", r2},
		{"latest~2", r1},
		{r1, r1},
		{"release", r2},
		{"aaaa1111bbbb", r1},
		{"aaaa", r1},         // commit prefix
		{"cccc2222dddd", r3}, // newest at that commit
	}
	for _, c := range cases {
		snap, err := s.Resolve(c.ref)
		if err != nil {
			t.Errorf("Resolve(%q): %v", c.ref, err)
			continue
		}
		if snap.RunID != c.want {
			t.Errorf("Resolve(%q) = %s, want %s", c.ref, snap.RunID, c.want)
		}
	}
	for _, bad := range []string{"latest~3", "latest~x", "nosuchtag", "ffff"} {
		if _, err := s.Resolve(bad); err == nil {
			t.Errorf("Resolve(%q) succeeded, want error", bad)
		}
	}
}

// Regression test for the ref grammar: strconv.Atoi alone accepts signed
// forms, so "latest~-1" (meaningless) and "latest~+1" (a silent alias of
// "latest~1") used to sneak through the digit check. All of them must be
// rejected with a message naming the expected form.
func TestResolveRejectsSignedLatestOffsets(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := harness.Params{}
	mustAppend(t, s, Meta{Time: at(1)}, Entry{Params: p, Result: testResult("w", 10)})
	mustAppend(t, s, Meta{Time: at(2)}, Entry{Params: p, Result: testResult("w", 11)})

	for _, bad := range []string{"latest~-1", "latest~+1", "latest~", "latest~ 1", "latest~1.0"} {
		_, err := s.Resolve(bad)
		if err == nil {
			t.Errorf("Resolve(%q) succeeded, want error", bad)
			continue
		}
		if !strings.Contains(err.Error(), "latest~N") {
			t.Errorf("Resolve(%q) error %q does not name the expected form", bad, err)
		}
	}
	// The digit-only check must not break the valid forms.
	if snap, err := s.Resolve("latest~1"); err != nil || len(snap.Records) == 0 {
		t.Fatalf("latest~1 broken: %v", err)
	}
	if _, err := s.Resolve("latest~0"); err != nil {
		t.Fatalf("latest~0 broken: %v", err)
	}
}

func TestResolveEmptyStore(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "never-written"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve("latest"); err == nil {
		t.Error("Resolve on an empty store succeeded, want error")
	}
}

func TestPrune(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := harness.Params{}
	for i := 0; i < 5; i++ {
		mustAppend(t, s, Meta{Time: at(i)}, Entry{Params: p, Result: testResult("w", float64(10+i))})
	}
	removed, err := s.Prune(2)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Errorf("Prune removed %d, want 3", removed)
	}
	snaps, err := s.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("after prune: %d snapshots, want 2", len(snaps))
	}
	// The survivors are the newest two, still in order, still diffable.
	if m, _ := snaps[0].Records[0].Result.Metric("gflops"); m.Value != 13 {
		t.Errorf("oldest surviving snapshot has gflops=%g, want 13", m.Value)
	}
	if removed, err = s.Prune(10); err != nil || removed != 0 {
		t.Errorf("no-op prune: removed=%d err=%v", removed, err)
	}
	if _, err := s.Prune(0); err == nil {
		t.Error("Prune(0) succeeded, want error")
	}
}

func TestDiff(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := harness.Params{}
	pq := harness.Params{Quick: true}.WithValue("nb", "8")
	mustAppend(t, s, Meta{Time: at(0)},
		Entry{Params: p, Result: testResult("w/stable", 10)},
		Entry{Params: pq, Result: testResult("w/hot", 20)},
		Entry{Params: p, Result: testResult("w/gone", 5)})
	mustAppend(t, s, Meta{Time: at(1)},
		Entry{Params: p, Result: testResult("w/stable", 10.01)}, // within threshold
		Entry{Params: pq, Result: testResult("w/hot", 10)},      // halved rate: regression
		Entry{Params: p, Result: testResult("w/new", 7)})

	oldSnap, err := s.Resolve("latest~1")
	if err != nil {
		t.Fatal(err)
	}
	newSnap, err := s.Resolve("latest")
	if err != nil {
		t.Fatal(err)
	}
	d := Diff(oldSnap, newSnap, 0.05)

	// w/hot: gflops halves (regressed) and simulated-s doubles (regressed).
	regs := d.Regressions()
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2: %+v", len(regs), regs)
	}
	for _, r := range regs {
		if r.Point != "w/hot [nb=8 quick]" {
			t.Errorf("regression on unexpected point %q", r.Point)
		}
	}
	if len(d.Added) != 1 || d.Added[0] != "w/new" {
		t.Errorf("Added = %v, want [w/new]", d.Added)
	}
	if len(d.Removed) != 1 || d.Removed[0] != "w/gone" {
		t.Errorf("Removed = %v, want [w/gone]", d.Removed)
	}

	var stable []report.DeltaRow
	for _, r := range d.Rows {
		if r.Point == "w/stable" && r.Metric == "gflops" {
			stable = append(stable, r)
		}
	}
	if len(stable) != 1 || stable[0].Status != report.DeltaOK {
		t.Errorf("w/stable gflops should be ok: %+v", stable)
	}

	// Self-diff is all-ok by construction.
	self := Diff(newSnap, newSnap, 0.05)
	if len(self.Regressions()) != 0 || len(self.Added) != 0 || len(self.Removed) != 0 ||
		len(self.MetricsAdded) != 0 || len(self.MetricsRemoved) != 0 {
		t.Errorf("self-diff not clean: %+v", self)
	}
}

// TestDiffHonorsMetricDirOverride: a workload's declared metric
// direction (harness.Metric.Dir, stamped by Spec.MetricDirs) overrides
// the name/unit heuristic in both directions.
func TestDiffHonorsMetricDirOverride(t *testing.T) {
	snap := func(metrics ...harness.Metric) Snapshot {
		r := harness.Result{WorkloadID: "w", Text: "x\n", Metrics: metrics}
		rec, err := newRecord("run", Meta{Time: at(0)}, Entry{Params: harness.Params{}, Result: r})
		if err != nil {
			t.Fatal(err)
		}
		return Snapshot{RunID: "run", Records: []Record{rec}}
	}
	rowStatus := func(d *report.DeltaReport, metric string) report.DeltaStatus {
		for _, row := range d.Rows {
			if row.Metric == metric {
				return row.Status
			}
		}
		t.Fatalf("no row for %s in %+v", metric, d.Rows)
		return ""
	}

	// "score" reads as higher-is-better to the heuristic; the workload
	// declares it lower-is-better, so a big increase must regress.
	oldSnap := snap(harness.Metric{Name: "score", Value: 10})
	newSnap := snap(harness.Metric{Name: "score", Value: 20, Dir: harness.DirLower})
	if got := rowStatus(Diff(oldSnap, newSnap, 0.05), "score"); got != report.DeltaRegressed {
		t.Fatalf("declared-lower score doubled: status %s, want regressed", got)
	}
	// Without the declaration the heuristic calls the same move improved.
	if got := rowStatus(Diff(oldSnap, snap(harness.Metric{Name: "score", Value: 20}), 0.05),
		"score"); got != report.DeltaImproved {
		t.Fatalf("undeclared score doubled: status %s, want improved (heuristic)", got)
	}

	// "drain-time" reads as lower-is-better to the heuristic; a workload
	// measuring, say, sustained drain throughput-seconds can declare
	// higher-is-better and an increase must improve.
	oldSnap = snap(harness.Metric{Name: "drain-time", Value: 10, Unit: "s"})
	newSnap = snap(harness.Metric{Name: "drain-time", Value: 20, Unit: "s", Dir: harness.DirHigher})
	if got := rowStatus(Diff(oldSnap, newSnap, 0.05), "drain-time"); got != report.DeltaImproved {
		t.Fatalf("declared-higher drain-time doubled: status %s, want improved", got)
	}
}

// TestDiffMetricDisappears: a metric present in the old snapshot but
// missing from the new one must be reported, not silently dropped — it is
// the failure mode where a code change stops emitting a tracked number.
func TestDiffMetricDisappears(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := harness.Params{}
	old := harness.Result{WorkloadID: "w", Text: "x\n"}
	old.AddMetric("gflops", 10, "GFLOPS")
	old.AddMetric("simulated-s", 1, "s")
	neu := harness.Result{WorkloadID: "w", Text: "x\n"}
	neu.AddMetric("simulated-s", 1, "s")
	neu.AddMetric("efficiency", 0.9, "")
	mustAppend(t, s, Meta{Time: at(0)}, Entry{Params: p, Result: old})
	mustAppend(t, s, Meta{Time: at(1)}, Entry{Params: p, Result: neu})

	oldSnap, _ := s.Resolve("latest~1")
	newSnap, _ := s.Resolve("latest")
	d := Diff(oldSnap, newSnap, 0.05)
	if len(d.MetricsRemoved) != 1 || d.MetricsRemoved[0] != "w: gflops" {
		t.Errorf("MetricsRemoved = %v, want [w: gflops]", d.MetricsRemoved)
	}
	if len(d.MetricsAdded) != 1 || d.MetricsAdded[0] != "w: efficiency" {
		t.Errorf("MetricsAdded = %v, want [w: efficiency]", d.MetricsAdded)
	}
	if len(d.Rows) != 1 || d.Rows[0].Metric != "simulated-s" {
		t.Errorf("still-shared metric not compared: %+v", d.Rows)
	}
	if !strings.Contains(d.Summary(), "REMOVED") {
		t.Errorf("summary does not flag the removed metric: %q", d.Summary())
	}
	if !d.Gates() {
		t.Error("a removed metric must fail the gate")
	}
}

// TestDiffTextOnlyExhibit: a point with no metrics at all (the pure-text
// exhibits) is compared by digest — a changed rendering gates, an
// identical one does not.
func TestDiffTextOnlyExhibit(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := harness.Params{}
	mk := func(text string) harness.Result {
		return harness.Result{WorkloadID: "E1", Text: text}
	}
	mustAppend(t, s, Meta{Time: at(0)}, Entry{Params: p, Result: mk("table v1\n")})
	mustAppend(t, s, Meta{Time: at(1)}, Entry{Params: p, Result: mk("table v1\n")})
	mustAppend(t, s, Meta{Time: at(2)}, Entry{Params: p, Result: mk("table v2\n")})

	s0, _ := s.Resolve("latest~2")
	s1, _ := s.Resolve("latest~1")
	s2, _ := s.Resolve("latest")

	same := Diff(s0, s1, 0.05)
	if len(same.TextChanged) != 0 || same.Gates() {
		t.Errorf("identical text exhibit gated: %+v", same)
	}
	changed := Diff(s1, s2, 0.05)
	if len(changed.TextChanged) != 1 || changed.TextChanged[0] != "E1" {
		t.Errorf("TextChanged = %v, want [E1]", changed.TextChanged)
	}
	if !changed.Gates() {
		t.Error("a changed text exhibit must fail the gate")
	}
	if !strings.Contains(changed.Summary(), "CHANGED") {
		t.Errorf("summary does not flag the text change: %q", changed.Summary())
	}

	// Gaining a metric in the same change that corrupted the text must
	// not hide the text change; gaining one with identical text must.
	grown := harness.Result{WorkloadID: "E1", Text: "table v3\n"}
	grown.AddMetric("rows", 5, "")
	mustAppend(t, s, Meta{Time: at(3)}, Entry{Params: p, Result: grown})
	s3, _ := s.Resolve("latest")
	d := Diff(s2, s3, 0.05)
	if len(d.TextChanged) != 1 {
		t.Errorf("text change hidden by a newly added metric: %+v", d)
	}
	sameText := harness.Result{WorkloadID: "E1", Text: "table v2\n"}
	sameText.AddMetric("rows", 5, "")
	mustAppend(t, s, Meta{Time: at(4)}, Entry{Params: p, Result: sameText})
	s4, _ := s.Resolve("latest")
	d2 := Diff(s2, s4, 0.05)
	if len(d2.TextChanged) != 0 {
		t.Errorf("identical text flagged as changed after gaining a metric: %+v", d2.TextChanged)
	}
}

// TestAppendAtomicOnEncodeError: an unencodable entry (NaN metric) must
// not leave a partial snapshot behind.
func TestAppendAtomicOnEncodeError(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := harness.Params{}
	mustAppend(t, s, Meta{Time: at(0)}, Entry{Params: p, Result: testResult("w", 10)})

	bad := harness.Result{WorkloadID: "w2", Text: "x\n"}
	bad.AddMetric("gflops", math.NaN(), "GFLOPS")
	_, err = s.Append(Meta{Time: at(1)}, []Entry{
		{Params: p, Result: testResult("w", 11)},
		{Params: p, Result: bad},
	})
	if err == nil {
		t.Fatal("Append with a NaN metric succeeded, want error")
	}
	snaps, err := s.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("partial snapshot leaked: %d snapshots, want 1", len(snaps))
	}
}

// TestAppendRejectsReservedTags: tags the ref grammar reserves are
// refused at write time, when the label would otherwise be unreachable.
func TestAppendRejectsReservedTags(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{"latest", "latest~1"} {
		_, err := s.Append(Meta{Tag: tag, Time: at(0)},
			[]Entry{{Result: testResult("w", 10)}})
		if err == nil {
			t.Errorf("Append with tag %q succeeded, want error", tag)
		}
	}
	if err := ValidateTag("release-2026"); err != nil {
		t.Errorf("ValidateTag rejected a normal tag: %v", err)
	}
	if err := ValidateTag("-v2"); err == nil {
		t.Error("ValidateTag accepted a dash-prefixed tag no ref can express")
	}
}

// TestDiffDuplicateMetricNames: duplicate metric names pair by occurrence
// index, so a regression in the second same-named metric still gates and
// a dropped duplicate is reported removed.
func TestDiffDuplicateMetricNames(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := harness.Params{}
	mk := func(vals ...float64) harness.Result {
		r := harness.Result{WorkloadID: "w", Text: "x\n"}
		for _, v := range vals {
			r.AddMetric("gflops", v, "GFLOPS")
		}
		return r
	}
	mustAppend(t, s, Meta{Time: at(0)}, Entry{Params: p, Result: mk(10, 20, 30)})
	mustAppend(t, s, Meta{Time: at(1)}, Entry{Params: p, Result: mk(10, 10)})

	oldSnap, _ := s.Resolve("latest~1")
	newSnap, _ := s.Resolve("latest")
	d := Diff(oldSnap, newSnap, 0.05)
	if len(d.Rows) != 2 {
		t.Fatalf("got %d rows, want 2 (one per occurrence): %+v", len(d.Rows), d.Rows)
	}
	if d.Rows[0].Status != report.DeltaOK {
		t.Errorf("first occurrence (10->10) should be ok: %+v", d.Rows[0])
	}
	if d.Rows[1].Status != report.DeltaRegressed || d.Rows[1].Old != 20 {
		t.Errorf("second occurrence (20->10) should regress: %+v", d.Rows[1])
	}
	if len(d.MetricsRemoved) != 1 {
		t.Errorf("dropped third occurrence not reported: %v", d.MetricsRemoved)
	}
}

// TestNextSeqSurvivesPrune: sequence numbers keep increasing after a
// prune, so RunIDs never collide even though older snapshots are gone.
func TestNextSeqSurvivesPrune(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := harness.Params{}
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, mustAppend(t, s, Meta{Time: at(i)}, Entry{Params: p, Result: testResult("w", 10)}))
	}
	if _, err := s.Prune(1); err != nil {
		t.Fatal(err)
	}
	id4 := mustAppend(t, s, Meta{Time: at(3)}, Entry{Params: p, Result: testResult("w", 10)})
	for _, old := range ids {
		if id4 == old {
			t.Fatalf("RunID %s reused after prune", id4)
		}
	}
}

// TestNextSeqCountsRunIDsWithoutSuffix: when the final record's RunID has
// no numeric suffix, the next sequence number is the count of distinct
// RunIDs in the file, blank lines and all.
func TestNextSeqCountsRunIDsWithoutSuffix(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(s.Dir(), 0o755); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	for _, id := range []string{"alpha", "beta", "alpha"} {
		line, err := encodeRecord(id, Meta{Time: at(0)}, Entry{Result: testResult("w", 1)})
		if err != nil {
			t.Fatal(err)
		}
		file.Write(line)
		file.WriteString("\n")
	}
	if err := os.WriteFile(s.file(), file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	id := mustAppend(t, s, Meta{Time: at(1)}, Entry{Result: testResult("w", 2)})
	if !strings.HasSuffix(id, "-002") {
		t.Fatalf("RunID %s, want sequence 002 after two distinct run IDs", id)
	}
}

// writeRuns writes one record per run ID, in the given order, straight
// into s's file: the shape of a store whose appenders interleaved.
func writeRuns(t *testing.T, s *Store, runIDs ...string) {
	t.Helper()
	if err := os.MkdirAll(s.Dir(), 0o755); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	for i, id := range runIDs {
		meta := Meta{Commit: "c-" + id, Tag: "t-" + id, Time: at(i)}
		line, err := encodeRecord(id, meta, Entry{Result: testResult(fmt.Sprintf("w%d", i), float64(i+1))})
		if err != nil {
			t.Fatal(err)
		}
		file.Write(line)
		file.WriteString("\n")
	}
	if err := os.WriteFile(s.file(), file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotsInterleavedRunIDs: records of interleaved runs group by
// RunID in first-seen order, each run's records in file order and its
// metadata from its first record — what a grouping into freshly
// appended per-run slices gives.
func TestSnapshotsInterleavedRunIDs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeRuns(t, s, "b", "a", "b", "c", "a", "a", "c", "b")
	recs, err := s.load(loadBatch)
	if err != nil {
		t.Fatal(err)
	}
	var want []Snapshot
	index := make(map[string]int)
	for _, r := range recs {
		i, ok := index[r.RunID]
		if !ok {
			i = len(want)
			index[r.RunID] = i
			want = append(want, Snapshot{RunID: r.RunID, Commit: r.Commit, Tag: r.Tag, Time: r.Time})
		}
		want[i].Records = append(want[i].Records, r)
	}
	got, err := s.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshots differ from the per-run grouping:\ngot  %+v\nwant %+v", got, want)
	}
	if len(got) != 3 || got[0].RunID != "b" || len(got[0].Records) != 3 || got[0].Time != at(0) {
		t.Fatalf("first snapshot = %s with %d records at %v, want b with 3 at %v",
			got[0].RunID, len(got[0].Records), got[0].Time, at(0))
	}
}

// TestSnapshotsAppendKeepsNextIntact: the snapshots share one record
// array, so each one's Records must be capped — appending to one must not
// overwrite the records of the snapshot after it.
func TestSnapshotsAppendKeepsNextIntact(t *testing.T) {
	for _, order := range [][]string{{"a", "a", "b", "b"}, {"a", "b", "a", "b"}} {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		writeRuns(t, s, order...)
		snaps, err := s.Snapshots()
		if err != nil {
			t.Fatal(err)
		}
		next := slices.Clone(snaps[1].Records)
		snaps[0].Records = append(snaps[0].Records, Record{RunID: "intruder"})
		if !reflect.DeepEqual(snaps[1].Records, next) {
			t.Fatalf("%v: appending to snapshot 0 changed snapshot 1: %+v", order, snaps[1].Records)
		}
	}
}
