package cli

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// maxRequestBody is the body limit decodeStrict enforces.
const maxRequestBody = 1 << 20

// jsonFields returns the JSON names of a request struct's fields.
func jsonFields(v any) []string {
	var out []string
	t := reflect.TypeOf(v)
	for i := 0; i < t.NumField(); i++ {
		out = append(out, strings.Split(t.Field(i).Tag.Get("json"), ",")[0])
	}
	return out
}

// mustRefuse reports why decodeStrict must refuse body for a request
// with the given fields, or "" if nothing does: a body over the limit, a
// top-level key no field matches (encoding/json matches names
// case-insensitively), or anything but JSON whitespace after the first
// value.
func mustRefuse(body []byte, fields []string) string {
	if len(body) > maxRequestBody {
		return "over-size body"
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	var first any
	if dec.Decode(&first) != nil {
		return "" // malformed: decodeStrict refuses it too, but the oracle need not say why
	}
	if obj, ok := first.(map[string]any); ok {
		for k := range obj {
			known := false
			for _, f := range fields {
				known = known || strings.EqualFold(k, f)
			}
			if !known {
				return "unknown field " + k
			}
		}
	}
	if len(bytes.Trim(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return "trailing data"
	}
	return ""
}

// FuzzServeDecodeStrict: serve's request decoder never panics, and it
// refuses every body with an unknown field, trailing data or more than
// the size limit, for both request types.
func FuzzServeDecodeStrict(f *testing.F) {
	f.Add([]byte(`{"id":"micro/pingpong","quick":true,"values":{"procs":"2"}}`))
	f.Add([]byte(`{"ids":["E1"],"seed":7}`))
	f.Add(append([]byte(`{"id":"E1"}`), bytes.Repeat([]byte(" "), maxRequestBody)...))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, req := range []any{&runRequest{}, &sweepRequest{}} {
			r := httptest.NewRequest("POST", "/", bytes.NewReader(body))
			err := decodeStrict(httptest.NewRecorder(), r, req)
			why := mustRefuse(body, jsonFields(reflect.ValueOf(req).Elem().Interface()))
			if err == nil && why != "" {
				t.Fatalf("%T accepted a body with %s: %q", req, why, truncate(body))
			}
		}
	})
}

// truncate shortens a body for a failure message.
func truncate(b []byte) []byte {
	if len(b) > 200 {
		return b[:200]
	}
	return b
}
