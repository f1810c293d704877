package nx

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/stats"
)

// tiny returns a small fast machine model for unit tests.
func tiny(rows, cols int) machine.Model {
	m := machine.Delta()
	m.Rows, m.Cols = rows, cols
	return m
}

func mustRun(t *testing.T, cfg Config, body func(*Proc)) *Result {
	t.Helper()
	res, err := Run(cfg, body)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(Config{}, func(*Proc) {}); err == nil {
		t.Fatal("empty config should fail validation")
	}
	if _, err := Run(Config{Model: tiny(2, 2), Procs: 5}, func(*Proc) {}); err == nil {
		t.Fatal("Procs > nodes should fail")
	}
	if _, err := Run(Config{Model: tiny(2, 2), Procs: -1}, func(*Proc) {}); err == nil {
		t.Fatal("negative Procs should fail")
	}
}

func TestRanksAndSize(t *testing.T) {
	seen := make([]bool, 4)
	var mu sync.Mutex
	mustRun(t, Config{Model: tiny(2, 2)}, func(p *Proc) {
		if p.Size() != 4 {
			t.Errorf("Size = %d, want 4", p.Size())
		}
		mu.Lock()
		seen[p.Rank()] = true
		mu.Unlock()
	})
	for r, ok := range seen {
		if !ok {
			t.Fatalf("rank %d never ran", r)
		}
	}
}

func TestSendCopiesPayload(t *testing.T) {
	mustRun(t, Config{Model: tiny(1, 2)}, func(p *Proc) {
		if p.Rank() == 0 {
			buf := []float64{1, 2, 3}
			p.SendFloats(1, 0, buf)
			buf[0] = 99 // mutation after send must not be visible
		} else {
			if got := p.RecvFloats(0, 0); got[0] != 1 {
				t.Error("send did not copy payload")
			}
		}
	})
}

func TestSendRecvFloats(t *testing.T) {
	want := []float64{1.5, -2.25, 3.75}
	mustRun(t, Config{Model: tiny(1, 2)}, func(p *Proc) {
		if p.Rank() == 0 {
			p.SendFloats(1, 3, want)
		} else {
			got := p.RecvFloats(0, 3)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("floats[%d] = %g, want %g", i, got[i], want[i])
				}
			}
		}
	})
}

func TestPhantomMessageCarriesSizeOnly(t *testing.T) {
	res := mustRun(t, Config{Model: tiny(1, 2)}, func(p *Proc) {
		if p.Rank() == 0 {
			p.SendPhantom(1, 0, 1<<20)
		} else {
			m := p.Recv(0, 0)
			if m.Floats != nil {
				t.Error("phantom message should carry no payload")
			}
			if m.Bytes != 1<<20 {
				t.Errorf("Bytes = %d, want 1MiB", m.Bytes)
			}
		}
	})
	if res.TotalBytes != 1<<20 {
		t.Fatalf("TotalBytes = %d, want 1MiB", res.TotalBytes)
	}
}

func TestFIFOPerSenderPair(t *testing.T) {
	const k = 50
	mustRun(t, Config{Model: tiny(1, 2)}, func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < k; i++ {
				p.SendFloats(1, 5, []float64{float64(i)})
			}
		} else {
			for i := 0; i < k; i++ {
				got := p.RecvFloats(0, 5)
				if got[0] != float64(i) {
					t.Fatalf("message %d arrived out of order: %g", i, got[0])
				}
			}
		}
	})
}

func TestTagMatching(t *testing.T) {
	mustRun(t, Config{Model: tiny(1, 2)}, func(p *Proc) {
		if p.Rank() == 0 {
			p.SendFloats(1, 1, []float64{1})
			p.SendFloats(1, 2, []float64{2})
		} else {
			// receive tag 2 first even though tag 1 was sent first
			if got := p.RecvFloats(0, 2); got[0] != 2 {
				t.Errorf("tag 2 payload = %g", got[0])
			}
			if got := p.RecvFloats(0, 1); got[0] != 1 {
				t.Errorf("tag 1 payload = %g", got[0])
			}
		}
	})
}

func TestWildcardRecv(t *testing.T) {
	mustRun(t, Config{Model: tiny(1, 3)}, func(p *Proc) {
		switch p.Rank() {
		case 0, 1:
			p.SendFloats(2, Tag(p.Rank()), []float64{float64(p.Rank())})
		case 2:
			got := map[int]bool{}
			for i := 0; i < 2; i++ {
				m := p.Recv(AnySrc, AnyTag)
				got[m.Src] = true
			}
			if !got[0] || !got[1] {
				t.Errorf("wildcard recv missed a source: %v", got)
			}
		}
	})
}

func TestProbe(t *testing.T) {
	mustRun(t, Config{Model: tiny(1, 2)}, func(p *Proc) {
		if p.Rank() == 0 {
			p.SendPhantom(1, 4, 1)
		} else {
			// spin until delivered (host-level), then probe
			for !p.Probe(0, 4) {
			}
			if p.Probe(0, 5) {
				t.Error("probe matched wrong tag")
			}
			p.Recv(0, 4)
			if p.Probe(AnySrc, AnyTag) {
				t.Error("probe matched after queue drained")
			}
		}
	})
}

func TestVirtualTimePointToPoint(t *testing.T) {
	model := tiny(1, 2)
	res := mustRun(t, Config{Model: model}, func(p *Proc) {
		if p.Rank() == 0 {
			p.SendFloats(1, 0, make([]float64, 1000))
		} else {
			p.RecvFloats(0, 0)
		}
	})
	// Receiver finish time must equal the full modelled point-to-point time.
	want := model.PointToPointTime(0, 1, 8000)
	got := res.Procs[1].Finish
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("receiver finish = %g, want %g", got, want)
	}
	if res.Makespan != got {
		t.Fatalf("makespan = %g, want receiver finish %g", res.Makespan, got)
	}
}

func TestVirtualTimeScalesWithHops(t *testing.T) {
	model := tiny(1, 8)
	timeFor := func(dst int) float64 {
		res := mustRun(t, Config{Model: model}, func(p *Proc) {
			if p.Rank() == 0 {
				p.SendPhantom(dst, 0, 0)
			} else if p.Rank() == dst {
				p.Recv(0, 0)
			}
		})
		return res.Procs[dst].Finish
	}
	near, far := timeFor(1), timeFor(7)
	wantDiff := 6 * model.Net.PerHop
	if math.Abs((far-near)-wantDiff) > 1e-12 {
		t.Fatalf("hop scaling: far-near = %g, want %g", far-near, wantDiff)
	}
}

func TestComputeAdvancesClockAndCountsFlops(t *testing.T) {
	model := tiny(1, 1)
	flops := model.Compute.GemmMFlops * 1e6 // exactly 1 virtual second
	res := mustRun(t, Config{Model: model}, func(p *Proc) {
		p.Compute(machine.OpGemm, flops)
	})
	if math.Abs(res.Makespan-1) > 1e-9 {
		t.Fatalf("makespan = %g, want 1", res.Makespan)
	}
	if res.TotalFlops != flops {
		t.Fatalf("flops = %g", res.TotalFlops)
	}
	if math.Abs(res.GFlops()-flops/1e9) > 1e-9 {
		t.Fatalf("GFlops = %g, want %g", res.GFlops(), flops/1e9)
	}
}

func TestRecvWaitAccounted(t *testing.T) {
	model := tiny(1, 2)
	res := mustRun(t, Config{Model: model}, func(p *Proc) {
		if p.Rank() == 0 {
			p.Compute(machine.OpScalar, 6e6) // 1 virtual second of work first
			p.SendPhantom(1, 0, 0)
		} else {
			p.Recv(0, 0) // immediately blocks; waits ~1s of virtual time
		}
	})
	if res.Procs[1].RecvWait < 0.9 {
		t.Fatalf("RecvWait = %g, want ~1s", res.Procs[1].RecvWait)
	}
}

func TestSendToSelf(t *testing.T) {
	mustRun(t, Config{Model: tiny(1, 1)}, func(p *Proc) {
		p.SendFloats(0, 0, []float64{42})
		if got := p.RecvFloats(0, 0); got[0] != 42 {
			t.Errorf("self-send payload = %g", got[0])
		}
	})
}

func TestInvalidDestinationPanics(t *testing.T) {
	_, err := Run(Config{Model: tiny(1, 2)}, func(p *Proc) {
		if p.Rank() == 0 {
			p.SendPhantom(5, 0, 0)
		} else {
			p.Recv(0, 0)
		}
	})
	var pe *PanicError
	if !asErr(err, &pe) {
		t.Fatalf("want PanicError, got %v", err)
	}
}

func TestReservedTagPanics(t *testing.T) {
	_, err := Run(Config{Model: tiny(1, 1)}, func(p *Proc) {
		p.SendPhantom(0, TagUserMax, 0)
	})
	var pe *PanicError
	if !asErr(err, &pe) {
		t.Fatalf("want PanicError for reserved tag, got %v", err)
	}
}

func TestBodyPanicPropagates(t *testing.T) {
	_, err := Run(Config{Model: tiny(2, 2)}, func(p *Proc) {
		if p.Rank() == 3 {
			panic("boom")
		}
		// everyone else blocks forever; the abort must unblock them
		p.Recv(AnySrc, AnyTag)
	})
	var pe *PanicError
	if !asErr(err, &pe) {
		t.Fatalf("want PanicError, got %v", err)
	}
	if pe.Rank != 3 || !strings.Contains(pe.Error(), "boom") {
		t.Fatalf("wrong panic error: %v", pe)
	}
}

func TestDeadlockDetected(t *testing.T) {
	_, err := Run(Config{Model: tiny(1, 2), DeadlockAfter: 200 * time.Millisecond},
		func(p *Proc) {
			// classic cycle: both receive before sending
			p.Recv(1-p.Rank(), 0)
		})
	var de *DeadlockError
	if !asErr(err, &de) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(de.Waiters) != 2 {
		t.Fatalf("waiters = %v, want 2 entries", de.Waiters)
	}
}

func TestNoFalseDeadlockUnderLoad(t *testing.T) {
	// A run that is slow but progressing must not trip the watchdog.
	_, err := Run(Config{Model: tiny(1, 2), DeadlockAfter: 100 * time.Millisecond},
		func(p *Proc) {
			for i := 0; i < 20; i++ {
				if p.Rank() == 0 {
					time.Sleep(20 * time.Millisecond) // host-slow sender
					p.SendPhantom(1, 0, 0)
				} else {
					p.Recv(0, 0)
				}
			}
		})
	if err != nil {
		t.Fatalf("false positive deadlock: %v", err)
	}
}

func TestHockneyFitRecoversModelParameters(t *testing.T) {
	// End-to-end validation of the timing model: measure simulated one-way
	// times across message sizes, fit the Hockney model (package stats),
	// and recover the machine parameters that generated them.
	model := tiny(1, 2)
	sizes := []float64{64, 512, 4096, 32768, 262144}
	times := make([]float64, len(sizes))
	for i, sz := range sizes {
		n := int(sz)
		res := mustRun(t, Config{Model: model}, func(p *Proc) {
			if p.Rank() == 0 {
				p.SendPhantom(1, 0, n)
			} else {
				p.Recv(0, 0)
			}
		})
		times[i] = res.Procs[1].Finish
	}
	fit, err := stats.FitHockney(sizes, times)
	if err != nil {
		t.Fatal(err)
	}
	wantLat := model.Net.SendOverhead + model.Net.Latency + model.Net.PerHop + model.Net.RecvOverhead
	wantBW := 1 / model.Net.ByteTime
	if stats.RelErr(fit.Latency, wantLat) > 1e-6 {
		t.Fatalf("fitted latency %g, model %g", fit.Latency, wantLat)
	}
	if stats.RelErr(fit.BandwidthBps, wantBW) > 1e-6 {
		t.Fatalf("fitted bandwidth %g, model %g", fit.BandwidthBps, wantBW)
	}
}

// asErr is errors.As without importing errors in every call site.
func asErr(err error, target any) bool {
	switch tp := target.(type) {
	case **PanicError:
		pe, ok := err.(*PanicError)
		if ok {
			*tp = pe
		}
		return ok
	case **DeadlockError:
		de, ok := err.(*DeadlockError)
		if ok {
			*tp = de
		}
		return ok
	}
	return false
}
