package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// decodeWireResponseTwoPass is the reference DecodeWireResponse must
// match: parse the frame as a WireResponse, then parse the same bytes
// again as a bare WireResult and validate that.
func decodeWireResponseTwoPass(line []byte) (WireResponse, error) {
	var r WireResponse
	if err := json.Unmarshal(line, &r); err != nil {
		return WireResponse{}, fmt.Errorf("harness: decode wire response: %w", err)
	}
	if r.Heartbeat {
		return WireResponse{Heartbeat: true}, nil
	}
	var wr WireResult
	if err := json.Unmarshal(line, &wr); err != nil {
		return WireResponse{}, fmt.Errorf("harness: decode wire result: %w", err)
	}
	if err := checkWireResult(wr); err != nil {
		return WireResponse{}, err
	}
	return WireResponse{WireResult: wr}, nil
}

// FuzzDecodeWireResponse: the one-parse decoder accepts and rejects
// exactly the frames the two-pass reference does, with the same error
// text and the same decoded value.
func FuzzDecodeWireResponse(f *testing.F) {
	res := Result{WorkloadID: "w", Title: "t", Text: "body\n"}
	res.AddMetric("gflops", 12.5, "GFLOPS")
	for _, v := range []any{
		WireResponse{Heartbeat: true},
		WireResponse{WireResult: WireResult{Index: 3, Result: &res}},
		WireResponse{WireResult: WireResult{Index: 1, Error: "boom", Panic: true}},
	} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"index":0}`))
	f.Add([]byte(`{"index":-1,"error":"x"}`))
	f.Add([]byte(`{"index":2,"error":"x","result":{"workload":"w","text":""}}`))
	f.Add([]byte(`{"heartbeat":true,"index":-4}`))
	f.Add([]byte(`{"heartbeat":"yes","index":0,"error":"x"}`))
	f.Add([]byte(`{"INDEX":5,"Error":"case-folded keys"}`))
	f.Add([]byte(`nope`))
	f.Fuzz(func(t *testing.T, line []byte) {
		got, err := DecodeWireResponse(line)
		want, wantErr := decodeWireResponseTwoPass(line)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %+v, reference %+v", got, want)
		}
	})
}

// reencodes checks that an accepted frame is a fixpoint of
// encode-then-decode: re-encoding the decoded value and decoding that
// again yields the same bytes, so nothing a decoder accepts is lost or
// reshaped on its next hop.
func reencodes[T any](t *testing.T, v T, decode func([]byte) (T, error)) {
	t.Helper()
	a, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("accepted value does not encode: %v", err)
	}
	w, err := decode(a)
	if err != nil {
		t.Fatalf("re-encoded frame %s rejected: %v", a, err)
	}
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("frame changed across a hop:\n%s\n%s", a, b)
	}
}

// FuzzDecodeWireHello: an accepted hello names a protocol revision and a
// registry fingerprint, is compatible with itself, and survives a
// re-encode unchanged.
func FuzzDecodeWireHello(f *testing.F) {
	reg := NewRegistry()
	s := echo("h/echo")
	s.Version = "v2"
	if err := reg.Register(s); err != nil {
		f.Fatal(err)
	}
	keyed := HelloFor(reg, RoleExecutor)
	keyed.TokenDigest = TokenDigest("sesame")
	for _, h := range []WireHello{HelloFor(reg, RoleWorker), keyed} {
		b, err := json.Marshal(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"proto":0,"fingerprint":"abc"}`))
	f.Add([]byte(`{"proto":1}`))
	f.Add([]byte(`{"proto":1,"fingerprint":"abc","workloads":{}}`))
	f.Add([]byte(`nope`))
	f.Fuzz(func(t *testing.T, line []byte) {
		h, err := DecodeWireHello(line)
		if err != nil {
			return
		}
		if h.Proto < 1 || h.Fingerprint == "" {
			t.Fatalf("accepted an incomplete hello: %+v", h)
		}
		if err := CheckHello(h, h); err != nil {
			t.Fatalf("hello incompatible with itself: %v", err)
		}
		reencodes(t, h, DecodeWireHello)
	})
}

// FuzzDecodeWireJob: an accepted job has a non-negative index and a
// workload ID, and survives a re-encode unchanged, params included.
func FuzzDecodeWireJob(f *testing.F) {
	for _, j := range []WireJob{
		{Index: 0, WorkloadID: "E1"},
		{Index: 7, WorkloadID: "app/cfd-stencil", Params: Params{Quick: true, Seed: 42}.WithValue("n", "512")},
	} {
		b, err := json.Marshal(j)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"index":-1,"workload_id":"x"}`))
	f.Add([]byte(`{"index":0,"workload_id":""}`))
	f.Add([]byte(`{"index":1,"workload_id":"x","params":{"values":{"b":"2","a":"1"}}}`))
	f.Add([]byte(`nope`))
	f.Fuzz(func(t *testing.T, line []byte) {
		j, err := DecodeWireJob(line)
		if err != nil {
			return
		}
		if j.Index < 0 || j.WorkloadID == "" {
			t.Fatalf("accepted an invalid job: %+v", j)
		}
		reencodes(t, j, DecodeWireJob)
	})
}

// chunkReader hands its data out at most n bytes per Read, so the frame
// reader meets short reads at offsets the fuzz input picks.
type chunkReader struct {
	data []byte
	n    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	k := copy(p[:min(len(p), r.n)], r.data)
	r.data = r.data[k:]
	return k, nil
}

// FuzzFrameReader: through short reads of any size, the frame reader
// returns exactly the input's trimmed non-blank lines, then io.EOF when
// the input ends on a frame boundary (nothing but space after its last
// newline) and ErrTruncatedFrame when it ends in a non-blank
// unterminated line — nothing else, and no panic. The seeds in
// testdata/fuzz/FuzzFrameReader are clean frames, blank and CRLF lines,
// a torn final frame, a blank unterminated tail and an empty stream.
func FuzzFrameReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		parts := bytes.Split(data, []byte("\n"))
		var want [][]byte
		for _, p := range parts[:len(parts)-1] {
			if p = bytes.TrimSpace(p); len(p) > 0 {
				want = append(want, p)
			}
		}
		torn := len(bytes.TrimSpace(parts[len(parts)-1])) > 0
		fr := newFrameReader(&chunkReader{data: data, n: int(chunk) + 1})
		for i := 0; ; i++ {
			frame, err := fr.next()
			if err == nil {
				if i >= len(want) || !bytes.Equal(frame, want[i]) {
					t.Fatalf("frame %d = %q; want the %d frames %q", i, frame, len(want), want)
				}
				continue
			}
			if i != len(want) {
				t.Fatalf("stream ended after %d of %d frames: %v", i, len(want), err)
			}
			if torn != errors.Is(err, ErrTruncatedFrame) || torn == errors.Is(err, io.EOF) {
				t.Fatalf("stream ended with %v; torn tail = %v", err, torn)
			}
			return
		}
	})
}
