package harness

import (
	"maps"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// fuzzParams builds Params from fuzz input: entries are newline-separated,
// each split at its first tab into key and value, so keys and values can
// hold any of Canonical's separators.
func fuzzParams(quick bool, seed int64, entries string) Params {
	p := Params{Quick: quick, Seed: seed}
	if entries == "" {
		return p
	}
	p.Values = make(map[string]string)
	for _, e := range strings.Split(entries, "\n") {
		k, v, _ := strings.Cut(e, "\t")
		p.Values[k] = v
	}
	return p
}

// parseCanonical inverts Canonical. That it exists — every canonical
// string decodes back to the Params it came from — is what makes
// Canonical injective.
func parseCanonical(t *testing.T, s string) Params {
	t.Helper()
	segs := strings.Split(s, ";")
	if len(segs) < 2 {
		t.Fatalf("canonical %q: want quick and seed segments", s)
	}
	quick, err := strconv.ParseBool(strings.TrimPrefix(segs[0], "quick="))
	if err != nil {
		t.Fatalf("canonical %q: %v", s, err)
	}
	seed, err := strconv.ParseInt(strings.TrimPrefix(segs[1], "seed="), 10, 64)
	if err != nil {
		t.Fatalf("canonical %q: %v", s, err)
	}
	p := Params{Quick: quick, Seed: seed}
	for _, seg := range segs[2:] {
		ek, ev, ok := strings.Cut(seg, "=")
		k, kerr := url.QueryUnescape(ek)
		v, verr := url.QueryUnescape(ev)
		if !ok || kerr != nil || verr != nil {
			t.Fatalf("canonical %q: bad segment %q", s, seg)
		}
		if p.Values == nil {
			p.Values = make(map[string]string)
		}
		if _, dup := p.Values[k]; dup {
			t.Fatalf("canonical %q: key %q twice", s, k)
		}
		p.Values[k] = v
	}
	return p
}

func sameParams(a, b Params) bool {
	return a.Quick == b.Quick && a.Seed == b.Seed && maps.Equal(a.Values, b.Values)
}

// FuzzParamsCanonical: equal Canonical strings imply equal Params. The
// result cache, the run store and the journal all key jobs by Canonical,
// so a collision would serve one point's result for another's.
func FuzzParamsCanonical(f *testing.F) {
	f.Add(false, int64(0), "n\t25000\nreal\ttrue", false, int64(0), "real\ttrue\nn\t25000")
	f.Add(true, int64(7), "a=b", true, int64(7), "a\tb")
	f.Add(false, int64(1), "a;b\tc", false, int64(1), "a\tb;c")
	f.Fuzz(func(t *testing.T, qa bool, sa int64, ea string, qb bool, sb int64, eb string) {
		a, b := fuzzParams(qa, sa, ea), fuzzParams(qb, sb, eb)
		ca, cb := a.Canonical(), b.Canonical()
		if ca == cb && !sameParams(a, b) {
			t.Fatalf("Canonical collision %q for %+v and %+v", ca, a, b)
		}
		for _, p := range []Params{a, b} {
			if back := parseCanonical(t, p.Canonical()); !sameParams(back, p) {
				t.Fatalf("Canonical %q decodes to %+v, want %+v", p.Canonical(), back, p)
			}
		}
	})
}
