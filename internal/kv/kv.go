// Package kv defines the typed key/value representation shared by the CPU
// (Hadoop Streaming) and GPU execution paths of HeteroDoop. Both paths must
// agree on serialization, ordering, and partitioning so that a job produces
// identical output regardless of where its tasks ran.
package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind describes the wire type of a key or value.
type Kind uint8

const (
	// Bytes is a raw byte string (C char arrays, words, lines).
	Bytes Kind = iota
	// Int is a signed 64-bit integer.
	Int
	// Float is a 64-bit IEEE float.
	Float
)

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	switch k {
	case Bytes:
		return "bytes"
	case Int:
		return "int"
	case Float:
		return "float"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single typed key or value. Exactly one of B / I / F is
// meaningful, selected by Kind.
type Value struct {
	Kind Kind
	B    []byte
	I    int64
	F    float64
}

// BytesValue builds a Bytes-kind value.
func BytesValue(b []byte) Value { return Value{Kind: Bytes, B: b} }

// StringValue builds a Bytes-kind value from a string.
func StringValue(s string) Value { return Value{Kind: Bytes, B: []byte(s)} }

// IntValue builds an Int-kind value.
func IntValue(i int64) Value { return Value{Kind: Int, I: i} }

// FloatValue builds a Float-kind value.
func FloatValue(f float64) Value { return Value{Kind: Float, F: f} }

// AppendText appends the value's text, the way Hadoop Streaming would
// print it, to b.
func (v Value) AppendText(b []byte) []byte {
	switch v.Kind {
	case Bytes:
		return append(b, v.B...)
	case Int:
		return strconv.AppendInt(b, v.I, 10)
	case Float:
		return strconv.AppendFloat(b, v.F, 'g', 12, 64)
	default:
		return b
	}
}

// Text renders the value the way Hadoop Streaming would print it.
func (v Value) Text() string {
	var buf [64]byte
	return string(v.AppendText(buf[:0]))
}

// ParseValue parses a streaming text field into a value of the given kind.
func ParseValue(kind Kind, text string) (Value, error) {
	switch kind {
	case Bytes:
		return BytesValue([]byte(text)), nil
	case Int:
		i, err := strconv.ParseInt(strings.TrimSpace(text), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("kv: parse int %q: %w", text, err)
		}
		return IntValue(i), nil
	case Float:
		f, err := strconv.ParseFloat(strings.TrimSpace(text), 64)
		if err != nil {
			return Value{}, fmt.Errorf("kv: parse float %q: %w", text, err)
		}
		return FloatValue(f), nil
	default:
		return Value{}, fmt.Errorf("kv: unknown kind %v", kind)
	}
}

// Compare orders two values of the same kind: bytewise for Bytes, numeric
// for Int and Float. Comparing mismatched kinds orders by kind, which keeps
// sorts total even on malformed streams.
func Compare(a, b Value) int {
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	switch a.Kind {
	case Bytes:
		return bytes.Compare(a.B, b.B)
	case Int:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	case Float:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
		return 0
	}
	return 0
}

// Pair is one key/value record.
type Pair struct {
	Key Value
	Val Value
}

// Text renders the pair as a tab-separated streaming line (no newline).
func (p Pair) Text() string {
	var buf [64]byte
	return string(p.AppendText(buf[:0]))
}

// AppendText appends the pair's streaming line, without its newline, to b.
func (p Pair) AppendText(b []byte) []byte {
	b = p.Key.AppendText(b)
	b = append(b, '\t')
	return p.Val.AppendText(b)
}

// TextBytes returns the bytes pairs take as streaming lines, newlines
// included. It formats every pair into one reused buffer.
func TextBytes(pairs []Pair) int64 {
	var n int64
	var buf []byte
	for _, p := range pairs {
		buf = p.AppendText(buf[:0])
		n += int64(len(buf)) + 1
	}
	return n
}

// ParsePair splits a streaming line at the first tab and parses both sides.
// A line with no tab becomes a pair with an empty value of valKind's zero.
func ParsePair(keyKind, valKind Kind, line string) (Pair, error) {
	keyText := line
	valText := ""
	if i := strings.IndexByte(line, '\t'); i >= 0 {
		keyText, valText = line[:i], line[i+1:]
	}
	k, err := ParseValue(keyKind, keyText)
	if err != nil {
		return Pair{}, err
	}
	if valText == "" && valKind != Bytes {
		return Pair{Key: k, Val: Value{Kind: valKind}}, nil
	}
	v, err := ParseValue(valKind, valText)
	if err != nil {
		return Pair{}, err
	}
	return Pair{Key: k, Val: v}, nil
}

// Schema fixes the wire types and serialized lengths of a job's
// intermediate KV pairs. KeyLen/ValLen mirror the paper's keylength and
// vallength clauses: byte keys/values are stored in fixed-size, zero-padded
// slots of the global KV store on the GPU.
type Schema struct {
	KeyKind Kind
	ValKind Kind
	KeyLen  int // slot bytes for the key (Bytes kind); 8 for Int/Float
	ValLen  int // slot bytes for the value
}

// SlotKeyLen returns the key slot size in bytes on the GPU.
func (s Schema) SlotKeyLen() int {
	if s.KeyKind != Bytes {
		return 8
	}
	return s.KeyLen
}

// SlotValLen returns the value slot size in bytes on the GPU.
func (s Schema) SlotValLen() int {
	if s.ValKind != Bytes {
		return 8
	}
	return s.ValLen
}

// EncodeKey serializes v into a fresh slot of SlotKeyLen bytes. Numeric
// keys are encoded order-preservingly (big-endian with sign-bit flip for
// ints, IEEE total-order trick for floats) so bytewise GPU comparisons sort
// identically to numeric CPU comparisons.
func (s Schema) EncodeKey(v Value) []byte {
	return encode(v, s.SlotKeyLen())
}

// EncodeVal serializes v into a fresh slot of SlotValLen bytes.
func (s Schema) EncodeVal(v Value) []byte {
	return encode(v, s.SlotValLen())
}

func encode(v Value, slot int) []byte {
	out := make([]byte, slot)
	switch v.Kind {
	case Bytes:
		copy(out, v.B)
	case Int:
		binary.BigEndian.PutUint64(out, uint64(v.I)^(1<<63))
	case Float:
		bits := math.Float64bits(v.F)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		binary.BigEndian.PutUint64(out, bits)
	}
	return out
}

// DecodeKey reverses EncodeKey.
func (s Schema) DecodeKey(b []byte) Value { return decode(s.KeyKind, b) }

// DecodeVal reverses EncodeVal.
func (s Schema) DecodeVal(b []byte) Value { return decode(s.ValKind, b) }

func decode(kind Kind, b []byte) Value {
	switch kind {
	case Bytes:
		// Trim the zero padding that fixed slots introduce.
		end := len(b)
		for end > 0 && b[end-1] == 0 {
			end--
		}
		return BytesValue(append([]byte(nil), b[:end]...))
	case Int:
		u := binary.BigEndian.Uint64(b) ^ (1 << 63)
		return IntValue(int64(u))
	case Float:
		bits := binary.BigEndian.Uint64(b)
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		return FloatValue(math.Float64frombits(bits))
	}
	return Value{}
}

// Partition returns the reducer index for key, matching Hadoop's
// HashPartitioner contract: a non-negative hash modulo the reducer count.
// Both the CPU streaming path and the GPU runtime call this exact function,
// which is what makes their partitions agree.
func Partition(key Value, numReducers int) int {
	if numReducers <= 1 {
		return 0
	}
	var h uint32 = 2166136261 // FNV-1a
	hash := func(b []byte) {
		for _, c := range b {
			h ^= uint32(c)
			h *= 16777619
		}
	}
	switch key.Kind {
	case Bytes:
		hash(key.B)
	case Int:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(key.I))
		hash(buf[:])
	case Float:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(key.F))
		hash(buf[:])
	}
	return int(h % uint32(numReducers))
}

// SortPairs sorts pairs by key (stable with respect to insertion order of
// equal keys via index tie-break), ascending.
func SortPairs(pairs []Pair) {
	stableSortBy(pairs, func(a, b Pair) int { return Compare(a.Key, b.Key) })
}

func stableSortBy(pairs []Pair, cmp func(a, b Pair) int) {
	// Bottom-up merge sort: stable, allocation-predictable, and mirrors the
	// merge structure the GPU sort uses.
	n := len(pairs)
	if n < 2 {
		return
	}
	buf := make([]Pair, n)
	src, dst := pairs, buf
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if cmp(src[i], src[j]) <= 0 {
					dst[k] = src[i]
					i++
				} else {
					dst[k] = src[j]
					j++
				}
				k++
			}
			for i < mid {
				dst[k] = src[i]
				i++
				k++
			}
			for j < hi {
				dst[k] = src[j]
				j++
				k++
			}
		}
		src, dst = dst, src
	}
	if &src[0] != &pairs[0] {
		copy(pairs, src)
	}
}
