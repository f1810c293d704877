package cli

// The -cpuprofile and -memprofile flags of run, sweep and report:
// runtime/pprof profiles of one invocation's own process (not of -shards
// or -remote workers), read with `go tool pprof -top <file>`. Profiles
// observe host time and memory only; they never reach results, cache
// keys or journal identities.

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// profileFlags carries the profile destinations and, while the CPU
// profile runs, its open file.
type profileFlags struct {
	cpu, mem string
	cpuFile  *os.File
}

func (pf *profileFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&pf.cpu, "cpuprofile", "", "write a CPU profile of this process to this file (go tool pprof)")
	fs.StringVar(&pf.mem, "memprofile", "", "write a heap profile of this process to this file when the command ends (go tool pprof)")
}

// start begins the CPU profile, if one was asked for. A command that
// calls it must defer stop.
func (pf *profileFlags) start() error {
	if pf.cpu == "" {
		return nil
	}
	f, err := os.Create(pf.cpu)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	pf.cpuFile = f
	return nil
}

// stop ends the CPU profile and writes the heap profile. A profile that
// fails to write fails the command, unless *errp already holds its
// error.
func (pf *profileFlags) stop(errp *error) {
	var errs []error
	if pf.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := pf.cpuFile.Close(); err != nil {
			errs = append(errs, fmt.Errorf("cpuprofile: %w", err))
		}
		pf.cpuFile = nil
	}
	if pf.mem != "" {
		if err := writeHeapProfile(pf.mem); err != nil {
			errs = append(errs, fmt.Errorf("memprofile: %w", err))
		}
	}
	if *errp == nil {
		*errp = errors.Join(errs...)
	}
}

// writeHeapProfile writes the heap profile as of the last collection,
// forcing one first so it includes everything allocated so far.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
