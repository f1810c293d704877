package cli

import (
	"os"
	"strings"
	"testing"
)

// TestMain lets this test binary stand in for the hpcc binary when a
// -shards sweep under test re-execs it: newExecutor marks worker
// children with workerEnv, so a marked invocation dispatches straight
// into the CLI (os.Args[1:] is ["worker"]) instead of running the test
// suite. This is exactly the re-exec path the real binary takes.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestSweepShardsByteIdenticalFullPortfolio(t *testing.T) {
	if testing.Short() {
		t.Skip("full-portfolio sweep in -short mode")
	}
	local, _, code := run(t, "sweep", "-quick")
	if code != 0 {
		t.Fatalf("local sweep exit %d", code)
	}
	for _, shards := range []string{"2", "4"} {
		sharded, errOut, code := run(t, "sweep", "-quick", "-shards", shards)
		if code != 0 {
			t.Fatalf("sweep -shards %s exit %d: %s", shards, code, errOut)
		}
		if sharded != local {
			t.Fatalf("sweep -shards %s output differs from the local pool", shards)
		}
	}
}

// TestSweepShardsIgnoreFleetToken: the fleet token guards network
// listeners; a -shards child is this process's own and handshakes
// without one. With HPCC_TOKEN set, parent and child would disagree if
// either side picked it up on stdio, and the sweep would be refused.
func TestSweepShardsIgnoreFleetToken(t *testing.T) {
	if testing.Short() {
		t.Skip("full-portfolio sweep in -short mode")
	}
	local, _, code := run(t, "sweep", "-quick", "-j", "2")
	if code != 0 {
		t.Fatalf("local sweep exit %d", code)
	}
	t.Setenv("HPCC_TOKEN", "x")
	sharded, errOut, code := run(t, "sweep", "-quick", "-shards", "2")
	if code != 0 {
		t.Fatalf("sweep -shards 2 with HPCC_TOKEN exit %d: %s", code, errOut)
	}
	if sharded != local {
		t.Fatal("sweep -shards 2 with HPCC_TOKEN differs from the local pool")
	}
}

func TestSweepShardsParamValues(t *testing.T) {
	local, _, code := run(t, "sweep", "linpack/delta", "-quick",
		"-param", "nb", "-values", "8,32", "-j", "2")
	if code != 0 {
		t.Fatalf("local sweep exit %d", code)
	}
	sharded, errOut, code := run(t, "sweep", "linpack/delta", "-quick",
		"-param", "nb", "-values", "8,32", "-shards", "2")
	if code != 0 {
		t.Fatalf("sharded sweep exit %d: %s", code, errOut)
	}
	if sharded != local {
		t.Fatalf("sharded value sweep differs:\n%s\n---\n%s", sharded, local)
	}
}

func TestReportShardsByteIdentical(t *testing.T) {
	local, _, code := run(t, "report", "-quick", "-j", "4")
	if code != 0 {
		t.Fatalf("local report exit %d", code)
	}
	sharded, errOut, code := run(t, "report", "-quick", "-shards", "3")
	if code != 0 {
		t.Fatalf("report -shards exit %d: %s", code, errOut)
	}
	if sharded != local {
		t.Fatalf("report -shards output differs from the local pool")
	}
}

// TestReportSingleExhibitRunsOnShards: report -e runs its one exhibit on
// the executor -shards picks, with the in-process bytes in text and JSON.
func TestReportSingleExhibitRunsOnShards(t *testing.T) {
	for _, mode := range [][]string{nil, {"-json"}} {
		args := append([]string{"report", "-e", "E4", "-quick"}, mode...)
		local, _, code := run(t, args...)
		if code != 0 {
			t.Fatalf("%v exit %d", args, code)
		}
		sharded, errOut, code := run(t, append(args, "-shards", "1")...)
		if code != 0 {
			t.Fatalf("%v -shards 1 exit %d: %s", args, code, errOut)
		}
		if sharded != local {
			t.Fatalf("%v -shards 1 output differs from in-process", args)
		}
	}
}

func TestSweepShardsJSONDecodes(t *testing.T) {
	local, _, code := run(t, "sweep", "-ids", "E1,app/nas-ep", "-quick", "-json")
	if code != 0 {
		t.Fatalf("local sweep exit %d", code)
	}
	sharded, errOut, code := run(t, "sweep", "-ids", "E1,app/nas-ep", "-quick", "-json", "-shards", "2")
	if code != 0 {
		t.Fatalf("sharded sweep exit %d: %s", code, errOut)
	}
	if sharded != local {
		t.Fatalf("sharded -json sweep differs:\n%s\n---\n%s", sharded, local)
	}
}

func TestWorkerRejectsArguments(t *testing.T) {
	_, errOut, code := run(t, "worker", "spurious")
	if code != 1 || !strings.Contains(errOut, "JSONL") {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
}

// Satellite regression: -values entries are trimmed like -ids entries,
// so "4, 8, 16" sweeps the numbers rather than " 8"-flavored bogus
// params; empty entries are rejected outright.
func TestSweepValuesTrimmed(t *testing.T) {
	tight, _, code := run(t, "sweep", "linpack/delta", "-quick",
		"-param", "nb", "-values", "8,32")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	spaced, errOut, code := run(t, "sweep", "linpack/delta", "-quick",
		"-param", "nb", "-values", " 8, 32 ")
	if code != 0 {
		t.Fatalf("spaced values exit %d: %s", code, errOut)
	}
	if spaced != tight {
		t.Fatalf("spaced -values output differs:\n%s\n---\n%s", spaced, tight)
	}
}

func TestSweepValuesRejectsEmptyEntries(t *testing.T) {
	for _, bad := range []string{"8,,32", "8, ,32", "8,32,"} {
		_, errOut, code := run(t, "sweep", "linpack/delta", "-quick",
			"-param", "nb", "-values", bad)
		if code != 1 || !strings.Contains(errOut, "empty value") {
			t.Fatalf("-values %q: exit %d, stderr %q", bad, code, errOut)
		}
	}
}

// Satellite regression: paramFlags.String used to join map entries in
// map iteration order, so -h output and flag defaults varied run to run.
func TestParamFlagsStringSorted(t *testing.T) {
	var p paramFlags
	for _, kv := range []string{"zeta=1", "alpha=2", "mid=3"} {
		if err := p.Set(kv); err != nil {
			t.Fatal(err)
		}
	}
	want := "alpha=2,mid=3,zeta=1"
	for i := 0; i < 20; i++ {
		if got := p.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

func TestShardsFlagShownInHelp(t *testing.T) {
	for _, cmd := range []string{"sweep", "report"} {
		_, errOut, code := run(t, cmd, "-h")
		if code != 0 {
			t.Fatalf("%s -h exit %d", cmd, code)
		}
		if !strings.Contains(errOut, "-shards") {
			t.Fatalf("%s -h does not document -shards:\n%s", cmd, errOut)
		}
	}
}
