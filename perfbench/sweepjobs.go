package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/harness"
)

// sweepGrid is the fixed parameter space the sweep workloads draw from:
// tiny registered points, each well under a millisecond of simulation.
// Ping-pong bounces between 2–4 ranks; LINPACK factors N=16..127 on
// four-process grids. The seed only picks and orders points, so the union
// of a run's two passes is always the whole grid and its results can be
// checked against one committed digest.
func sweepGrid() ([]harness.Job, error) {
	pp, err := harness.Lookup("micro/pingpong")
	if err != nil {
		return nil, err
	}
	lp, err := harness.Lookup("linpack/delta")
	if err != nil {
		return nil, err
	}
	var jobs []harness.Job
	for procs := 2; procs <= 4; procs++ {
		for reps := 1; reps <= 64; reps++ {
			for maxBytes := 8; maxBytes <= 8<<18; maxBytes *= 8 {
				jobs = append(jobs, harness.Job{Workload: pp, Params: harness.Params{Values: map[string]string{
					"procs": strconv.Itoa(procs), "reps": strconv.Itoa(reps), "maxbytes": strconv.Itoa(maxBytes),
				}}})
			}
		}
	}
	grids := [][2]int{{2, 2}, {1, 4}, {4, 1}, {1, 2}, {2, 1}}
	for _, g := range grids {
		for _, nb := range []int{4, 8, 16} {
			for n := 16; n < 128; n++ {
				jobs = append(jobs, harness.Job{Workload: lp, Params: harness.Params{Values: map[string]string{
					"n": strconv.Itoa(n), "nb": strconv.Itoa(nb), "pr": strconv.Itoa(g[0]), "pc": strconv.Itoa(g[1]),
				}}})
			}
		}
	}
	return jobs, nil
}

// sweepLists draws the two passes from the grid with the seed: pass 1 is
// two thirds of the grid; pass 2 is half of pass 1 (cache hits) mixed
// with the remaining third (misses), in seeded order.
func sweepLists(grid []harness.Job, seed int64) (pass1, pass2 []harness.Job) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(grid))
	cut := 2 * len(grid) / 3
	for _, i := range perm[:cut] {
		pass1 = append(pass1, grid[i])
	}
	for _, i := range rng.Perm(cut)[:cut/2] {
		pass2 = append(pass2, pass1[i])
	}
	for _, i := range perm[cut:] {
		pass2 = append(pass2, grid[i])
	}
	rng.Shuffle(len(pass2), func(i, j int) { pass2[i], pass2[j] = pass2[j], pass2[i] })
	return pass1, pass2
}

// sweepCheck verifies the results of both passes: every job answered,
// repeated points byte-identical, and the XOR of the per-point digests
// over the grid equal to the golden value. It returns the failed job
// count and a digest of all result bytes in order.
func sweepCheck(golden string, passes [2][]harness.Job, results [2][]harness.Result) (failed int, digest string) {
	first := make(map[string][]byte)
	var xor [sha256.Size]byte
	ordered := sha256.New()
	total := 0
	for p := range passes {
		total += len(passes[p])
		for i, job := range passes[p] {
			if i >= len(results[p]) {
				failed++
				continue
			}
			b, err := json.Marshal(results[p][i])
			if err != nil || results[p][i].WorkloadID != job.Workload.ID() {
				failed++
				continue
			}
			ordered.Write(b)
			ordered.Write([]byte{'\n'})
			key := jobKey(job.Workload.ID(), job.Params)
			if prev, ok := first[key]; ok {
				if string(prev) != string(b) {
					failed++
				}
				continue
			}
			first[key] = b
			xorPoint(&xor, key, b)
		}
	}
	if hex.EncodeToString(xor[:]) != golden {
		// The grid digest cannot say which point is wrong.
		failed = total
	}
	return failed, hex.EncodeToString(ordered.Sum(nil))
}

// gridDigest is the golden value sweepCheck compares against.
func gridDigest(grid []harness.Job, results []harness.Result) (string, error) {
	if len(results) != len(grid) {
		return "", fmt.Errorf("grid: %d results for %d points", len(results), len(grid))
	}
	var xor [sha256.Size]byte
	for i, job := range grid {
		b, err := json.Marshal(results[i])
		if err != nil {
			return "", err
		}
		xorPoint(&xor, jobKey(job.Workload.ID(), job.Params), b)
	}
	return hex.EncodeToString(xor[:]), nil
}

// xorPoint folds one point's digest into an order-independent set digest.
func xorPoint(acc *[sha256.Size]byte, key string, result []byte) {
	sum := sha256.Sum256([]byte(key + "\x00" + string(result)))
	for k := range acc {
		acc[k] ^= sum[k]
	}
}
