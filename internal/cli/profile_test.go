package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestProfileFlagsWriteProfilesAndKeepOutput: run, sweep and report write
// non-empty CPU and heap profiles and print exactly the bytes they print
// without them; an unwritable profile path fails the command.
func TestProfileFlagsWriteProfilesAndKeepOutput(t *testing.T) {
	for _, args := range [][]string{
		{"run", "app/poisson-cg", "-quick"},
		{"sweep", "-ids", "E1,app/nas-ep", "-quick"},
		{"report", "-quick", "-e", "E3"},
	} {
		t.Run(args[0], func(t *testing.T) {
			plain, _, code := run(t, args...)
			if code != 0 {
				t.Fatalf("%v: exit %d", args, code)
			}
			dir := t.TempDir()
			cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
			profiled, errOut, code := run(t, append(args, "-cpuprofile", cpu, "-memprofile", mem)...)
			if code != 0 {
				t.Fatalf("%v with profiles: exit %d: %s", args, code, errOut)
			}
			if profiled != plain {
				t.Fatalf("%v: output changed under profiling", args)
			}
			for _, f := range []string{cpu, mem} {
				if st, err := os.Stat(f); err != nil || st.Size() == 0 {
					t.Fatalf("%v: profile %s missing or empty (%v)", args, filepath.Base(f), err)
				}
			}
		})
	}
	bad := filepath.Join(t.TempDir(), "no-such-dir", "cpu.prof")
	if _, errOut, code := run(t, "run", "E1", "-quick", "-cpuprofile", bad); code == 0 || !strings.Contains(errOut, "cpuprofile") {
		t.Fatalf("unwritable -cpuprofile: exit %d, stderr %q", code, errOut)
	}
}

// TestRunStatsSideChannel: run -stats prints the engine counters to
// stderr and leaves stdout, text or JSON, byte-identical.
func TestRunStatsSideChannel(t *testing.T) {
	for _, args := range [][]string{
		{"run", "E4", "-quick"},
		{"run", "E4", "-quick", "-json"},
	} {
		plain, _, code := run(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d", args, code)
		}
		withStats, errOut, code := run(t, append(args, "-stats")...)
		if code != 0 {
			t.Fatalf("%v -stats: exit %d: %s", args, code, errOut)
		}
		if withStats != plain {
			t.Fatalf("%v: output changed under -stats", args)
		}
		if !strings.Contains(errOut, "engine: fused-posts=") || strings.Contains(errOut, "fused-posts=0 ") {
			t.Fatalf("%v -stats: stderr %q lacks nonzero engine counters", args, errOut)
		}
	}
}
