package cli

// HTTP tests for `hpcc serve`: the handlers run under httptest against a
// private registry, so run counts are observable and nothing leaks into
// the Default registry the shard/fleet byte-identity tests re-exec.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/store"
)

// serveTestServer builds a server over its own registry: a deterministic
// counting workload plus a failing one. calls observes how many times
// the counting workload actually ran.
func serveTestServer(t *testing.T, cacheDir, storeDir string) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var calls atomic.Int32
	reg := harness.NewRegistry()
	mustRegister := func(s harness.Spec) {
		t.Helper()
		if err := reg.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	mustRegister(harness.Spec{
		WorkloadID: "srv/count",
		Desc:       "counts runs",
		Version:    "v1",
		Space:      []harness.Param{{Name: "n", Default: "1"}},
		RunFunc: func(_ context.Context, p harness.Params) (harness.Result, error) {
			calls.Add(1)
			n, err := p.Int("n", 1)
			if err != nil {
				return harness.Result{}, err
			}
			r := harness.Result{WorkloadID: "srv/count", Text: fmt.Sprintf("n=%d quick=%v\n", n, p.Quick)}
			r.AddMetric("n", float64(n), "")
			return r, nil
		},
	})
	mustRegister(harness.Spec{
		WorkloadID: "srv/fail",
		Desc:       "always fails",
		Version:    "v1",
		RunFunc: func(context.Context, harness.Params) (harness.Result, error) {
			return harness.Result{}, fmt.Errorf("deliberate failure")
		},
	})
	srv := &server{
		reg:      reg,
		storeDir: storeDir,
		stderr:   io.Discard,
		newExec: func() (harness.Executor, error) {
			return harness.LocalExecutor{Workers: 2}, nil
		},
	}
	if cacheDir != "" {
		cf := cacheFlags{dir: cacheDir}
		c, err := cf.open()
		if err != nil {
			t.Fatal(err)
		}
		srv.cache = c
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, &calls
}

func postJSON(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func getURL(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func TestServeRunMissThenHit(t *testing.T) {
	ts, calls := serveTestServer(t, t.TempDir(), "")
	resp, body := postJSON(t, ts.URL+"/api/v1/run", `{"id":"srv/count","values":{"n":"7"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-HPCC-Cache"); got != "miss" {
		t.Fatalf("cold run cache header %q, want miss", got)
	}
	var res harness.Result
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatalf("run response is not a Result: %v\n%s", err, body)
	}
	if res.Text != "n=7 quick=false\n" {
		t.Fatalf("wrong result text %q", res.Text)
	}

	resp2, body2 := postJSON(t, ts.URL+"/api/v1/run", `{"id":"srv/count","values":{"n":"7"}}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm run: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-HPCC-Cache"); got != "hit" {
		t.Fatalf("warm run cache header %q, want hit", got)
	}
	if body2 != body {
		t.Fatalf("cached response differs from computed:\n%s\n---\n%s", body2, body)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("workload ran %d times, want 1 (second response from cache)", got)
	}
}

func TestServeRunWithoutCacheBypasses(t *testing.T) {
	ts, calls := serveTestServer(t, "", "")
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/api/v1/run", `{"id":"srv/count"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: %d %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-HPCC-Cache"); got != "bypass" {
			t.Fatalf("run %d cache header %q, want bypass", i, got)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("uncached workload ran %d times, want 2", got)
	}
}

func TestServeConcurrentIdenticalRunsCoalesce(t *testing.T) {
	ts, calls := serveTestServer(t, t.TempDir(), "")
	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/api/v1/run", `{"id":"srv/count","values":{"n":"3"}}`)
			codes[i], bodies[i] = resp.StatusCode, body
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, codes[i], bodies[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("request %d body differs from request 0", i)
		}
	}
	// The flight coalesces whatever overlaps and the cache covers the
	// rest, so the workload itself must have run exactly once.
	if got := calls.Load(); got != 1 {
		t.Fatalf("workload ran %d times under %d identical requests, want 1", got, n)
	}
}

func TestServeRunMalformedIs400(t *testing.T) {
	ts, _ := serveTestServer(t, "", "")
	for name, body := range map[string]string{
		"garbage":       `{not json`,
		"unknown-field": `{"id":"srv/count","bogus":true}`,
		"trailing":      `{"id":"srv/count"} {"again":1}`,
		"missing-id":    `{}`,
	} {
		resp, out := postJSON(t, ts.URL+"/api/v1/run", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, out)
		}
		if !strings.Contains(resp.Header.Get("Content-Type"), "application/json") {
			t.Errorf("%s: error content-type %q", name, resp.Header.Get("Content-Type"))
		}
	}
}

func TestServeRunUnknownWorkloadIs404(t *testing.T) {
	ts, _ := serveTestServer(t, "", "")
	resp, _ := postJSON(t, ts.URL+"/api/v1/run", `{"id":"srv/nope"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestServeRunWorkloadErrorIs500(t *testing.T) {
	ts, _ := serveTestServer(t, "", "")
	resp, body := postJSON(t, ts.URL+"/api/v1/run", `{"id":"srv/fail"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(body, "deliberate failure") {
		t.Fatalf("error body hides the cause: %s", body)
	}
}

// TestServeRunRealLinpackCapped: real LINPACK numerics through the API
// are bounded like on the command line: an order past the N=4096 cap is
// refused before the factorization starts, and nothing reaches the cache.
func TestServeRunRealLinpackCapped(t *testing.T) {
	dir := t.TempDir()
	cf := cacheFlags{dir: dir}
	c, err := cf.open()
	if err != nil {
		t.Fatal(err)
	}
	srv := &server{
		cache:  c,
		stderr: io.Discard,
		newExec: func() (harness.Executor, error) {
			return harness.LocalExecutor{Workers: 1}, nil
		},
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	resp, body := postJSON(t, ts.URL+"/api/v1/run", `{"id":"linpack/delta","values":{"real":"true","n":"5000"}}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "capped at N=4096 (got 5000)") {
		t.Fatalf("error body does not name the cap: %s", body)
	}
	if n, err := c.Len(); err != nil || n != 0 {
		t.Fatalf("cache holds %d entries (%v) after a refused run", n, err)
	}
}

// TestServeRunPanicIsContained: a panicking workload is a 500 on every
// identical request. The compute runs on the executor stack, which
// contains the panic, so the coalescing flight never sees one: a repeat
// request neither hangs on a poisoned key nor kills the server.
func TestServeRunPanicIsContained(t *testing.T) {
	reg := harness.NewRegistry()
	if err := reg.Register(harness.Spec{
		WorkloadID: "srv/panic",
		Desc:       "panics on every run",
		RunFunc: func(context.Context, harness.Params) (harness.Result, error) {
			panic("deliberate test panic")
		},
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer((&server{reg: reg, stderr: io.Discard}).handler())
	t.Cleanup(ts.Close)
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 2; i++ {
		resp, err := client.Post(ts.URL+"/api/v1/run", "application/json", strings.NewReader(`{"id":"srv/panic"}`))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "workload panicked") {
			t.Fatalf("request %d: status %d, body %s; want 500 naming the panic", i, resp.StatusCode, body)
		}
	}
	resp, err := client.Get(ts.URL + "/api/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("workloads after panics: status %d", resp.StatusCode)
	}
}

func TestServeRunWrongMethodIs405(t *testing.T) {
	ts, _ := serveTestServer(t, "", "")
	resp, _ := getURL(t, ts.URL+"/api/v1/run")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET run status %d, want 405", resp.StatusCode)
	}
}

func TestServeSweepPortfolioAndCacheTally(t *testing.T) {
	ts, calls := serveTestServer(t, t.TempDir(), "")
	body := `{"id":"srv/count","param":"n","values":["2","4","6"]}`
	resp, out := postJSON(t, ts.URL+"/api/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold sweep: %d %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-HPCC-Cache"); got != "hits=0 misses=3" {
		t.Fatalf("cold sweep tally %q", got)
	}
	var results []harness.Result
	if err := json.Unmarshal([]byte(out), &results); err != nil || len(results) != 3 {
		t.Fatalf("sweep response: %v (%d results)\n%s", err, len(results), out)
	}
	if results[1].Text != "n=4 quick=false\n" {
		t.Fatalf("sweep point order wrong: %q", results[1].Text)
	}
	resp2, out2 := postJSON(t, ts.URL+"/api/v1/sweep", body)
	if got := resp2.Header.Get("X-HPCC-Cache"); got != "hits=3 misses=0" {
		t.Fatalf("warm sweep tally %q", got)
	}
	if out2 != out {
		t.Fatal("warm sweep body differs from cold")
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("sweep ran the workload %d times, want 3", got)
	}
}

func TestServeSweepByIDs(t *testing.T) {
	ts, _ := serveTestServer(t, "", "")
	resp, out := postJSON(t, ts.URL+"/api/v1/sweep", `{"ids":["srv/count","srv/count"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, out)
	}
	var results []harness.Result
	if err := json.Unmarshal([]byte(out), &results); err != nil || len(results) != 2 {
		t.Fatalf("sweep response: %v\n%s", err, out)
	}
}

func TestServeSweepBadRequests(t *testing.T) {
	ts, _ := serveTestServer(t, "", "")
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"param-without-values": {`{"id":"srv/count","param":"n"}`, http.StatusBadRequest},
		"id-without-param":     {`{"id":"srv/count"}`, http.StatusBadRequest},
		"unknown-id":           {`{"ids":["srv/nope"]}`, http.StatusNotFound},
		"workload-error":       {`{"ids":["srv/fail"]}`, http.StatusInternalServerError},
	} {
		resp, out := postJSON(t, ts.URL+"/api/v1/sweep", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", name, resp.StatusCode, tc.want, out)
		}
	}
}

func TestServeWorkloadsAndHealth(t *testing.T) {
	ts, _ := serveTestServer(t, "", "")
	resp, out := getURL(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || out != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, out)
	}
	resp, out = getURL(t, ts.URL+"/api/v1/workloads")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("workloads: %d", resp.StatusCode)
	}
	var entries []struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(out), &entries); err != nil || len(entries) != 2 {
		t.Fatalf("workloads response: %v\n%s", err, out)
	}
}

func TestServeTrend(t *testing.T) {
	storeDir := t.TempDir()
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r := harness.Result{WorkloadID: "srv/count", Text: "x\n"}
		r.AddMetric("n", float64(i+1), "")
		if _, err := st.Append(store.Meta{Commit: "aaaa111" + fmt.Sprint(i)},
			[]store.Entry{{Params: harness.Params{}, Result: r}}); err != nil {
			t.Fatal(err)
		}
	}
	ts, _ := serveTestServer(t, "", storeDir)
	resp, out := getURL(t, ts.URL+"/api/v1/trend?workload=srv/count&metric=n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trend: %d %s", resp.StatusCode, out)
	}
	var points []store.TrendPoint
	if err := json.Unmarshal([]byte(out), &points); err != nil || len(points) != 2 {
		t.Fatalf("trend response: %v\n%s", err, out)
	}
	if points[0].Value != 1 || points[1].Value != 2 {
		t.Fatalf("trend not oldest-first: %+v", points)
	}
	if resp, out := getURL(t, ts.URL+"/api/v1/trend?workload=srv/nope&metric=n"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown workload trend: %d %s", resp.StatusCode, out)
	}
	if resp, _ := getURL(t, ts.URL+"/api/v1/trend"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing workload param: %d", resp.StatusCode)
	}
}

func TestServeTrendWithoutStoreIs503(t *testing.T) {
	ts, _ := serveTestServer(t, "", "")
	resp, out := getURL(t, ts.URL+"/api/v1/trend?workload=srv/count")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("trend without -store: %d %s", resp.StatusCode, out)
	}
	if !strings.Contains(out, "-store") {
		t.Fatalf("503 body does not say how to fix it: %s", out)
	}
}

func TestServeTrendMissingStoreIs404(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "never-created")
	ts, _ := serveTestServer(t, "", missing)
	resp, out := getURL(t, ts.URL+"/api/v1/trend?workload=srv/count")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trend against a missing store: %d %s, want 404", resp.StatusCode, out)
	}
	if !strings.Contains(out, "does not exist") {
		t.Fatalf("404 body does not explain the missing store: %s", out)
	}
}

// TestServeCommandListensAndAnswers drives the real subcommand: flag
// parsing, listener setup, the listening banner, request service, and
// graceful shutdown on context cancellation.
func TestServeCommandListensAndAnswers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var out bytes.Buffer
	lockedOut := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return out.Write(p)
	})
	done := make(chan int, 1)
	go func() {
		done <- MainContext(ctx, []string{"serve", "-addr", "127.0.0.1:0"}, lockedOut, io.Discard)
	}()
	base := awaitBanner(t, &mu, &out, "hpcc serve: listening on ")
	resp, body := getURL(t, strings.TrimSpace(base)+"/healthz")
	if resp.StatusCode != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz over the real command: %d %q", resp.StatusCode, body)
	}
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("serve exit code %d after graceful shutdown", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not shut down on cancellation")
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// awaitBanner polls a mutex-guarded buffer until the given prefix line
// appears, returning the rest of that line (an address or URL).
func awaitBanner(t *testing.T, mu *sync.Mutex, buf *bytes.Buffer, prefix string) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		s := buf.String()
		mu.Unlock()
		if i := strings.Index(s, prefix); i >= 0 {
			line := s[i+len(prefix):]
			if j := strings.IndexByte(line, '\n'); j >= 0 {
				return line[:j]
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("banner %q never appeared", prefix)
	return ""
}
