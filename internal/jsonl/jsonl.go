// Package jsonl is the append-only JSONL log layer under the run store
// (repro/internal/store) and the sweep journal (repro/internal/journal).
// It owns the framing: it streams a log's non-blank lines, decodes them
// in ordered parallel batches, finds the last line from the end, repairs
// a final line a crash left without its newline, and makes an append
// durable. What a line means, and which torn fragment may be kept, stays
// with the caller.
//
// Errors from the file come back as the os package words them, naming
// the failing call and the path.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"runtime"
	"sync"
	"unicode"
)

// Batch is how many lines Decode's callers read before decoding them
// together: enough to keep every core busy, small enough that a read
// never holds more than a batch of raw lines beside what it decoded.
const Batch = 256

// Line is one non-blank line of a log.
type Line struct {
	// Text is the line with surrounding space trimmed.
	Text []byte
	// No is the physical line number, from 1, counting blank lines.
	No int
	// Unterminated marks a final line without its newline: a crash
	// mid-append may have torn it.
	Unterminated bool
}

// Reader streams a log's non-blank lines through one buffer, so the
// whole log is never held in memory.
type Reader struct {
	br   *bufio.Reader
	no   int
	done bool
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<20)}
}

// Next returns the next non-blank line, or io.EOF after the last one.
func (r *Reader) Next() (Line, error) {
	for !r.done {
		raw, err := r.br.ReadBytes('\n')
		if err != nil && !errors.Is(err, io.EOF) {
			return Line{}, err
		}
		r.done = err != nil
		r.no++
		if text := bytes.TrimSpace(raw); len(text) > 0 {
			return Line{Text: text, No: r.no, Unterminated: r.done}, nil
		}
	}
	return Line{}, io.EOF
}

// Decode reads r's remaining lines batch at a time. Each batch is
// unmarshalled in parallel (FanOut), one T per line; visit then sees
// every line with its value and its unmarshal error in file order, and
// the first error visit returns ends the read. So what visit sees, and
// what Decode returns, are exactly those of a line-by-line decode. v is
// valid only until visit returns.
func Decode[T any](r *Reader, batch int, visit func(l Line, v *T, err error) error) error {
	lines := make([]Line, 0, batch)
	vals := make([]T, batch)
	errs := make([]error, batch)
	flush := func() error {
		clear(vals)
		FanOut(len(lines), func(i int) {
			errs[i] = json.Unmarshal(lines[i].Text, &vals[i])
		})
		for i, l := range lines {
			if err := visit(l, &vals[i], errs[i]); err != nil {
				return err
			}
		}
		lines = lines[:0]
		return nil
	}
	for {
		l, err := r.Next()
		if err != nil {
			if ferr := flush(); ferr != nil || errors.Is(err, io.EOF) {
				return ferr
			}
			return err
		}
		lines = append(lines, l)
		if len(lines) == batch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
}

// FanOut calls fn(i) for every i in [0, n), split into contiguous chunks
// over GOMAXPROCS goroutines, and returns once every call has. Callers
// write each result into its own slot and read the slots back in index
// order, so what they report never depends on scheduling.
func FanOut(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// tail reads f backward from size, a chunk at a time, until it holds the
// last line with anything but space in it, so it touches only the tail
// however long the log is. It returns that line's start offset and the
// bytes from there to size; a log of nothing but space gives offset 0
// and all of it.
func tail(f io.ReaderAt, size int64) (int64, []byte, error) {
	const chunk = 64 * 1024
	var buf []byte
	off := size
	for off > 0 {
		n := min(chunk, off)
		off -= n
		head := make([]byte, n, n+int64(len(buf)))
		if _, err := f.ReadAt(head, off); err != nil {
			return 0, nil, err
		}
		buf = append(head, buf...)
		if i := bytes.LastIndexByte(bytes.TrimRightFunc(buf, unicode.IsSpace), '\n'); i >= 0 {
			return off + int64(i+1), buf[i+1:], nil
		}
	}
	return 0, buf, nil
}

// LastLine returns f's last non-blank line, trimmed, or nil when it has
// none.
func LastLine(f *os.File) ([]byte, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	_, rest, err := tail(f, st.Size())
	if err != nil {
		return nil, err
	}
	if text := bytes.TrimSpace(rest); len(text) > 0 {
		return text, nil
	}
	return nil, nil
}

// Repair heals a log whose final line lost its newline in a crash
// mid-append. A final line that accept takes (given its trimmed text)
// gets its newline back; any other is truncated away, and Repair returns
// how many bytes that dropped. A log that is empty or ends in a newline
// is left alone. f must be open for reading and appending; a repair is
// synced before Repair returns.
func Repair(f *os.File, accept func(text []byte) bool) (dropped int, err error) {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return 0, err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil || last[0] == '\n' {
		return 0, err
	}
	start, frag, err := tail(f, st.Size())
	if err != nil {
		return 0, err
	}
	if i := bytes.LastIndexByte(frag, '\n'); i >= 0 {
		start, frag = start+int64(i+1), frag[i+1:]
	}
	if accept(bytes.TrimSpace(frag)) {
		_, err = f.Write([]byte{'\n'})
	} else {
		dropped = len(frag)
		err = f.Truncate(start)
	}
	if err == nil {
		err = f.Sync()
	}
	return dropped, err
}

// Append writes b to f in one Write, so a crash can tear only the final
// line, and then fsyncs f: b is on disk when Append returns nil.
func Append(f *os.File, b []byte) error {
	if _, err := f.Write(b); err != nil {
		return err
	}
	return f.Sync()
}
