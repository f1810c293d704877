package cli

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/harness"
)

// TestHostileParamsFailCleanly runs every registered workload with each
// declared parameter at 0 and at -1, quick scale. A workload must answer
// with a result or an error and never panic deep in a library, and the
// values that used to panic, wrap around or silently run a library
// default must be errors.
func TestHostileParamsFailCleanly(t *testing.T) {
	mustReject := make(map[string]bool)
	for _, name := range []string{
		"mesh/saturation rows=0", "mesh/saturation rows=-1",
		"mesh/saturation cols=0", "mesh/saturation cols=-1",
		"mesh/saturation bytes=-1", "mesh/saturation packets=-1",
		"app/nas-ep n=-1", "app/nas-ep procs=0",
		"app/nbody-ring procs=0", "app/poisson-cg procs=0", "app/shallow-water procs=0",
		"micro/pingpong procs=0", "micro/pingpong reps=0",
		"micro/pingpong maxbytes=0", "micro/pingpong maxbytes=-1",
	} {
		mustReject[name] = true
	}
	for _, w := range harness.All() {
		for _, p := range w.ParamSpace() {
			for _, v := range []string{"0", "-1"} {
				name := w.ID() + " " + p.Name + "=" + v
				err := runRecovered(w, harness.Params{Quick: true, Values: map[string]string{p.Name: v}})
				var pe *harness.PanicError
				switch {
				case errors.As(err, &pe):
					t.Errorf("%s panicked: %s", name, pe.Value)
				case mustReject[name] && err == nil:
					t.Errorf("%s ran; want an error", name)
				}
				delete(mustReject, name)
			}
		}
	}
	for name := range mustReject {
		t.Errorf("%s: no such workload parameter", name)
	}
}

// runRecovered runs w, turning a panic into a *harness.PanicError.
func runRecovered(w harness.Workload, p harness.Params) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &harness.PanicError{Value: fmt.Sprint(v)}
		}
	}()
	_, err = w.Run(context.Background(), p)
	return err
}
