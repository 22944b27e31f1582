package obs

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
)

// Both dumps stream through one fixed buffer: a record is appended to it,
// and the buffer is flushed once fewer than exportSlack bytes are left, so
// a record shorter than the slack never grows it.
const (
	exportBufSize = 64 << 10
	exportSlack   = 4 << 10
)

// exportWriter buffers one dump on its way to w. The first write error
// sticks: later flushes write nothing and return it.
type exportWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func newExportWriter(w io.Writer) *exportWriter {
	return &exportWriter{w: w, buf: make([]byte, 0, exportBufSize)}
}

// endRecord flushes the buffer once the record just appended leaves it
// nearly full.
func (x *exportWriter) endRecord() {
	if len(x.buf) >= exportBufSize-exportSlack {
		x.flush()
	}
}

// flush writes out the buffer and returns the first write error.
func (x *exportWriter) flush() error {
	if x.err == nil && len(x.buf) > 0 {
		_, x.err = x.w.Write(x.buf)
	}
	x.buf = x.buf[:0]
	return x.err
}

// jsonPlain marks the bytes that encoding/json copies into a string
// literal unescaped: printable ASCII other than the quote, the backslash
// and the HTML-escaped <, > and &.
var jsonPlain = func() (plain [256]bool) {
	for c := ' '; c <= '~'; c++ {
		plain[c] = true
	}
	for _, c := range `"\<>&` {
		plain[c] = false
	}
	return plain
}()

// appendJSONString appends s as a JSON string literal, byte-identical to
// encoding/json.Marshal(s). Plain strings are copied as they are; any
// other string goes through encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !jsonPlain[s[i]] {
			q, _ := json.Marshal(s) // marshalling a string cannot fail
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends v in the shortest form that round-trips, with the
// infinities spelled the Prometheus way.
func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
