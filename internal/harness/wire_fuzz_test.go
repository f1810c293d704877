package harness

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// decodeWireResponseTwoPass is the reference DecodeWireResponse must
// match: parse the frame as a WireResponse, then parse the same bytes
// again through DecodeWireResult.
func decodeWireResponseTwoPass(line []byte) (WireResponse, error) {
	var r WireResponse
	if err := json.Unmarshal(line, &r); err != nil {
		return WireResponse{}, fmt.Errorf("harness: decode wire response: %w", err)
	}
	if r.Heartbeat {
		return WireResponse{Heartbeat: true}, nil
	}
	wr, err := DecodeWireResult(line)
	if err != nil {
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
