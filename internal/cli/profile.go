package cli

// The -cpuprofile, -memprofile and -exectrace flags of run, sweep and
// report: runtime/pprof profiles and a runtime/trace execution trace of
// one invocation's own process (not of -shards or -remote workers), read
// with `go tool pprof -top <file>` and `go tool trace <file>`. They
// observe host time and memory only; they never reach results, cache
// keys or journal identities.

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// profileFlags carries the profile destinations and, while the CPU
// profile and the execution trace run, their open files.
type profileFlags struct {
	cpu, mem, exec    string
	cpuFile, execFile *os.File
}

func (pf *profileFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&pf.cpu, "cpuprofile", "", "write a CPU profile of this process to this file (go tool pprof)")
	fs.StringVar(&pf.mem, "memprofile", "", "write a heap profile of this process to this file when the command ends (go tool pprof)")
	fs.StringVar(&pf.exec, "exectrace", "", "write an execution trace of this process (goroutines, parks, GC) to this file (go tool trace)")
}

// start begins the CPU profile and the execution trace that were asked
// for. A command whose start succeeds must defer stop; a failed start
// leaves nothing running.
func (pf *profileFlags) start() error {
	if pf.cpu != "" {
		f, err := startTo(pf.cpu, pprof.StartCPUProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		pf.cpuFile = f
	}
	if pf.exec != "" {
		f, err := startTo(pf.exec, trace.Start)
		if err != nil {
			if pf.cpuFile != nil {
				pprof.StopCPUProfile()
				pf.cpuFile.Close()
				pf.cpuFile = nil
			}
			return fmt.Errorf("exectrace: %w", err)
		}
		pf.execFile = f
	}
	return nil
}

// startTo creates path and starts a recorder writing to it.
func startTo(path string, start func(io.Writer) error) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := start(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
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
	if pf.execFile != nil {
		trace.Stop()
		if err := pf.execFile.Close(); err != nil {
			errs = append(errs, fmt.Errorf("exectrace: %w", err))
		}
		pf.execFile = nil
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
