package cli

// End-to-end crash-safety tests for the -journal/-resume flags and the
// resume subcommand: a journaled sweep that completes cleans up after
// itself, an interrupted one resumes byte-identically, and a journal
// from a different binary is refused.

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/journal"
)

// sweepJobs mirrors the job list `hpcc sweep -ids <ids> -quick` builds.
func sweepJobs(t *testing.T, ids ...string) []harness.Job {
	t.Helper()
	var ws []harness.Workload
	for _, id := range ids {
		w, err := harness.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return harness.WorkloadJobs(ws, harness.Params{Quick: true})
}

// interruptedSweep fabricates the journal a killed `hpcc sweep -ids
// E1,E3 -quick -journal dir` leaves behind: header plus the first
// job's checkpoint.
func interruptedSweep(t *testing.T, dir string, jobs []harness.Job, nDone int) string {
	t.Helper()
	return interruptedSweepHeader(t, dir, journalHeader("sweep", jobs, false), jobs, nDone)
}

// interruptedSweepHeader is interruptedSweep under an explicit header.
func interruptedSweepHeader(t *testing.T, dir string, h journal.Header, jobs []harness.Job, nDone int) string {
	t.Helper()
	j, err := journal.Create(dir, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nDone; i++ {
		res, err := jobs[i].Workload.Run(context.Background(), jobs[i].Params)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Record(i, res); err != nil {
			t.Fatal(err)
		}
	}
	hash := j.Header().Hash
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return hash
}

func TestSweepJournalCompleteRunRemovesJournal(t *testing.T) {
	want, _, code := run(t, "sweep", "-ids", "E1,E3", "-quick")
	if code != 0 {
		t.Fatalf("plain sweep exit %d", code)
	}
	dir := t.TempDir()
	got, errOut, code := run(t, "sweep", "-ids", "E1,E3", "-quick", "-journal", dir)
	if code != 0 {
		t.Fatalf("journaled sweep exit %d: %s", code, errOut)
	}
	if got != want {
		t.Fatal("journaled sweep output differs from plain sweep")
	}
	if !strings.Contains(errOut, "journal complete; removed") {
		t.Fatalf("no cleanup note: %q", errOut)
	}
	paths, err := journal.List(dir)
	if err != nil || len(paths) != 0 {
		t.Fatalf("journal left behind after a clean run: %v, %v", paths, err)
	}
}

func TestSweepExistingJournalWithoutResumeRefused(t *testing.T) {
	dir := t.TempDir()
	interruptedSweep(t, dir, sweepJobs(t, "E1", "E3"), 1)
	_, errOut, code := run(t, "sweep", "-ids", "E1,E3", "-quick", "-journal", dir)
	if code == 0 {
		t.Fatal("sweep silently appended into an existing journal")
	}
	if !strings.Contains(errOut, "-resume") {
		t.Fatalf("refusal does not point at -resume: %q", errOut)
	}
}

func TestResumeFinishesInterruptedSweepByteIdentical(t *testing.T) {
	want, _, code := run(t, "sweep", "-ids", "E1,E3", "-quick")
	if code != 0 {
		t.Fatalf("plain sweep exit %d", code)
	}
	// Journals written by older binaries record the collective engine
	// and the engine's shard count in their header. Output never
	// depended on either, so such a journal resumes as is, whatever it
	// recorded.
	for _, old := range []struct {
		collectives string
		shards      int
	}{{"", 0}, {"fused", 1}, {"tree", 4}} {
		name := fmt.Sprintf("collectives=%q shards=%d", old.collectives, old.shards)
		dir := t.TempDir()
		jobs := sweepJobs(t, "E1", "E3")
		h := journalHeader("sweep", jobs, false)
		h.Collectives, h.SimShards = old.collectives, old.shards
		interruptedSweepHeader(t, dir, h, jobs, 1)

		got, errOut, code := run(t, "resume", "-journal", dir)
		if code != 0 {
			t.Fatalf("%s: resume exit %d: %s", name, code, errOut)
		}
		if got != want {
			t.Fatalf("%s: resumed output differs from uninterrupted sweep:\n%q\n---\n%q", name, got, want)
		}
		if !strings.Contains(errOut, "1 of 2 job(s) already complete") {
			t.Fatalf("%s: replay count missing: %q", name, errOut)
		}
		paths, _ := journal.List(dir)
		if len(paths) != 0 {
			t.Fatalf("%s: journal left behind after a completed resume: %v", name, paths)
		}
	}
}

// TestNewJournalHeaderOmitsEngineFields: the CLI no longer records the
// collective engine or the shard count, and a header without them
// round-trips through Open.
func TestNewJournalHeaderOmitsEngineFields(t *testing.T) {
	dir := t.TempDir()
	jf := journalFlags{dir: dir}
	if err := jf.open("sweep", sweepJobs(t, "E1"), false, io.Discard); err != nil {
		t.Fatal(err)
	}
	path, hash := jf.jnl.Path(), jf.jnl.Header().Hash
	jf.jnl.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(string(b), "\n")
	for _, field := range []string{`"collectives"`, `"sim_shards"`} {
		if strings.Contains(header, field) {
			t.Fatalf("new journal header carries %s: %s", field, header)
		}
	}
	j, h, done, err := journal.Open(path, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if h.Hash != hash || h.Collectives != "" || h.SimShards != 0 || len(done) != 0 {
		t.Fatalf("header did not round-trip: %+v, %d done", h, len(done))
	}
}

func TestSweepResumeFlagContinuesInterrupted(t *testing.T) {
	want, _, code := run(t, "sweep", "-ids", "E1,E3", "-quick")
	if code != 0 {
		t.Fatalf("plain sweep exit %d", code)
	}
	dir := t.TempDir()
	interruptedSweep(t, dir, sweepJobs(t, "E1", "E3"), 1)
	got, errOut, code := run(t, "sweep", "-ids", "E1,E3", "-quick", "-journal", dir, "-resume")
	if code != 0 {
		t.Fatalf("sweep -resume exit %d: %s", code, errOut)
	}
	if got != want {
		t.Fatal("sweep -resume output differs from uninterrupted sweep")
	}
	if !strings.Contains(errOut, "resuming journal") {
		t.Fatalf("no resume note: %q", errOut)
	}
}

func TestResumePicksJournalByHashPrefix(t *testing.T) {
	dir := t.TempDir()
	hashA := interruptedSweep(t, dir, sweepJobs(t, "E1", "E3"), 1)
	interruptedSweep(t, dir, sweepJobs(t, "E1"), 0)

	// Ambiguous: two journals, no ref.
	_, errOut, code := run(t, "resume", "-journal", dir)
	if code == 0 || !strings.Contains(errOut, "hash prefix") {
		t.Fatalf("ambiguous resume not refused: exit %d, %q", code, errOut)
	}
	// A hash prefix disambiguates.
	_, errOut, code = run(t, "resume", "-journal", dir, hashA[:6])
	if code != 0 {
		t.Fatalf("resume by prefix exit %d: %s", code, errOut)
	}
	if !strings.Contains(errOut, hashA) {
		t.Fatalf("resume picked the wrong journal: %q", errOut)
	}
}

func TestResumeRefusesForeignFingerprint(t *testing.T) {
	dir := t.TempDir()
	h := journalHeader("sweep", sweepJobs(t, "E1"), false)
	h.Fingerprint = "00000000deadbeef" // a binary this process is not
	j, err := journal.Create(dir, h)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, errOut, code := run(t, "resume", "-journal", dir)
	if code == 0 {
		t.Fatal("journal from a foreign registry fingerprint resumed")
	}
	for _, want := range []string{"identity mismatch", "fingerprint"} {
		if !strings.Contains(errOut, want) {
			t.Fatalf("refusal missing %q: %q", want, errOut)
		}
	}
}

// TestSweepBudgetExpiryKeepsJournalThenResumeCompletes closes the
// crash-safety loop on the -budget satellite: an expired budget kills
// the sweep but keeps the journal with a resume hint, and the resume
// produces the uninterrupted bytes.
func TestSweepBudgetExpiryKeepsJournalThenResumeCompletes(t *testing.T) {
	want, _, code := run(t, "sweep", "-ids", "E1,E3", "-quick")
	if code != 0 {
		t.Fatalf("plain sweep exit %d", code)
	}
	dir := t.TempDir()
	_, errOut, code := run(t, "sweep", "-ids", "E1,E3", "-quick", "-journal", dir, "-budget", "1ns")
	if code == 0 {
		t.Fatal("1ns budget did not kill the sweep")
	}
	for _, note := range []string{"journal kept", "hpcc resume -journal", "budget"} {
		if !strings.Contains(errOut, note) {
			t.Fatalf("budget-killed sweep stderr missing %q: %q", note, errOut)
		}
	}
	got, errOut, code := run(t, "resume", "-journal", dir)
	if code != 0 {
		t.Fatalf("resume after budget kill exit %d: %s", code, errOut)
	}
	if got != want {
		t.Fatal("resume after budget kill differs from uninterrupted sweep")
	}
}
