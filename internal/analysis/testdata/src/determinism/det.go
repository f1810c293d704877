// Package determinism is the hpccdet analysistest fixture: every
// `want` line below must be flagged, every other line must not.
//
//hpcc:deterministic
package determinism

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/nx"
)

// Clock violations: wall time in a deterministic package.
func clocks(t0 time.Time) time.Duration {
	_ = time.Now()      // want `wall clock time\.Now`
	d := time.Since(t0) // want `wall clock time\.Since`
	_ = time.Until(t0)  // want `wall clock time\.Until`
	_ = time.Unix(42, 0)
	return d
}

// Rand violations: the process-global source vs an explicit seed.
func draws() int {
	n := rand.Intn(10)                // want `global math/rand source`
	r := rand.New(rand.NewSource(42)) // seeded ctor: sanctioned
	_ = n
	return r.Intn(10) // method on seeded Rand: fine
}

func shuffleGlobal(n int) {
	rand.Shuffle(n, func(i, j int) {}) // want `global math/rand source`
}

// Wildcard receives match in host arrival order.
func receives(p *nx.Proc) {
	p.Recv(nx.AnySrc, 3) // want `wildcard nx\.AnySrc`
	p.Recv(1, nx.AnyTag) // want `wildcard nx\.AnyTag`
	_ = p.Probe(1, 3)
	p.RecvAll([]nx.RecvSpec{{Src: 1, Tag: 3}}, nil) // exact specs: fine
}

// Map-iteration order leaking into results.
func mapOrder(m map[string]int, ch chan string, sb *strings.Builder) []string {
	var unsorted []string
	for k := range m {
		unsorted = append(unsorted, k) // want `appended in map-iteration order`
	}
	_ = unsorted

	var rescued []string
	for k := range m {
		rescued = append(rescued, k) // sorted below: the sanctioned idiom
	}
	sort.Strings(rescued)

	for k := range m {
		ch <- k // want `channel send inside a map range`
	}

	for k := range m {
		sb.WriteString(k) // want `sb\.WriteString inside a map range`
	}

	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want `output written via fmt\.Printf`
	}

	var total float64
	var concat string
	var count int
	for _, v := range m {
		total += float64(v) // want `float accumulation onto total`
		count += v          // integer accumulation commutes: fine
	}
	for k := range m {
		concat += k // want `string concatenation onto concat`
	}
	_, _, _ = total, concat, count

	for k, v := range m {
		if v > 0 {
			return []string{k} // want `return of a map-iteration variable`
		}
	}

	// Ranging a slice is ordered; nothing below may be flagged.
	var fromSlice []string
	for _, k := range rescued {
		fromSlice = append(fromSlice, k)
		sb.WriteString(k)
	}
	return fromSlice
}
