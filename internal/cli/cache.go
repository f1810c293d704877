package cli

// Result-cache wiring: the -cache flag shared by run, sweep and report.
// With -cache unset the commands behave exactly as before; with it, jobs
// whose (workload, canonical params, kernel version) triple has been run
// before are served from disk through harness.CachingExecutor, and output
// stays byte-identical either way.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/harness"
)

// cacheFlags carries the result-cache flag common to run, sweep and
// report.
type cacheFlags struct {
	dir string
}

func (cf *cacheFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&cf.dir, "cache", "", "serve repeat runs from the result cache in this directory (e.g. "+cache.DefaultDir+"); misses are recorded for next time")
}

// open validates the flag and returns the cache handle, or nil when the
// flag is unset. It runs before any workload does, so a bad directory
// fails fast.
func (cf *cacheFlags) open() (*cache.Cache, error) {
	if cf.dir == "" {
		return nil, nil
	}
	return cache.Open(cf.dir)
}

// wrap layers the cache onto an executor; a nil cache leaves the executor
// untouched.
func wrapExecutor(ex harness.Executor, c *cache.Cache) harness.Executor {
	if c == nil {
		return ex
	}
	return &harness.CachingExecutor{Inner: ex, Cache: c}
}

// cmdCache is the cache maintenance subcommand: `hpcc cache prune`
// evicts entries by age and total size (the eviction-policy follow-up to
// the content-addressed cache).
func cmdCache(_ context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 || args[0] != "prune" {
		fmt.Fprintln(stderr, "usage: hpcc cache prune [-cache dir] [-max-age d] [-max-size bytes]")
		if len(args) == 0 {
			return errors.New("cache: want a subcommand (prune)")
		}
		return fmt.Errorf("cache: unknown subcommand %q (want prune)", args[0])
	}
	fs := flag.NewFlagSet("hpcc cache prune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("cache", cache.DefaultDir, "cache directory to prune")
	maxAge := fs.Duration("max-age", 0, "evict entries older than this (e.g. 720h; 0 = no age bound)")
	maxSize := fs.Int64("max-size", 0, "evict oldest-written entries until the cache fits in this many bytes (0 = no size bound)")
	if err := fs.Parse(args[1:]); err != nil {
		return parseErr(err)
	}
	if fs.NArg() > 0 {
		return errors.New("cache prune: takes no positional arguments")
	}
	if *maxAge <= 0 && *maxSize <= 0 {
		return errors.New("cache prune: need -max-age and/or -max-size (otherwise nothing would be evicted)")
	}
	c, err := cache.Open(*dir)
	if err != nil {
		return err
	}
	st, err := c.Prune(*maxAge, *maxSize)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pruned %s: evicted %d entries (%d bytes), kept %d entries (%d bytes)\n",
		c.Dir(), st.Evicted, st.FreedBytes, st.Kept, st.KeptBytes)
	return nil
}
