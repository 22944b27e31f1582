package kv

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// TestValueText pins the streaming text of every value kind, through
// Text and through AppendText onto a prefix, and of pairs of them.
func TestValueText(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{StringValue("hello"), "hello"},
		{StringValue(""), ""},
		{BytesValue([]byte("a\tb c")), "a\tb c"},
		{IntValue(-42), "-42"},
		{IntValue(0), "0"},
		{IntValue(math.MaxInt64), "9223372036854775807"},
		{IntValue(math.MinInt64), "-9223372036854775808"},
		{FloatValue(1.5), "1.5"},
		{FloatValue(-2.25), "-2.25"},
		{FloatValue(1.0 / 3), "0.333333333333"},
		{FloatValue(123456789012345), "1.23456789012e+14"},
		{FloatValue(5e-324), "4.94065645841e-324"},
		{FloatValue(1e-7), "1e-07"},
		{FloatValue(math.MaxFloat64), "1.79769313486e+308"},
		{FloatValue(math.Copysign(0, -1)), "-0"},
		{FloatValue(math.NaN()), "NaN"},
		{FloatValue(math.Inf(1)), "+Inf"},
		{FloatValue(math.Inf(-1)), "-Inf"},
	}
	for _, c := range cases {
		if got := c.v.Text(); got != c.want {
			t.Errorf("Text(%v) = %q, want %q", c.v, got, c.want)
		}
		if got := string(c.v.AppendText([]byte("x="))); got != "x="+c.want {
			t.Errorf("AppendText(%v) = %q, want %q", c.v, got, "x="+c.want)
		}
		p := Pair{Key: IntValue(7), Val: c.v}
		if got, want := p.Text(), "7\t"+c.want; got != want {
			t.Errorf("Pair.Text = %q, want %q", got, want)
		}
		if got, want := TextBytes([]Pair{p, p}), int64(2*(len(c.want)+3)); got != want {
			t.Errorf("TextBytes of two %q pairs = %d, want %d", p.Text(), got, want)
		}
	}
}

func TestParseValueRoundTrip(t *testing.T) {
	for _, v := range []Value{StringValue("word"), IntValue(123), IntValue(-9), FloatValue(3.25)} {
		got, err := ParseValue(v.Kind, v.Text())
		if err != nil {
			t.Fatalf("ParseValue(%v): %v", v, err)
		}
		if Compare(got, v) != 0 {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	if _, err := ParseValue(Int, "abc"); err == nil {
		t.Error("parsing int from 'abc' should fail")
	}
	if _, err := ParseValue(Float, "xy"); err == nil {
		t.Error("parsing float from 'xy' should fail")
	}
}

func TestPairTextAndParse(t *testing.T) {
	p := Pair{Key: StringValue("the"), Val: IntValue(7)}
	line := p.Text()
	if line != "the\t7" {
		t.Fatalf("Text = %q", line)
	}
	q, err := ParsePair(Bytes, Int, line)
	if err != nil {
		t.Fatal(err)
	}
	if Compare(q.Key, p.Key) != 0 || Compare(q.Val, p.Val) != 0 {
		t.Fatalf("parse mismatch: %v vs %v", q, p)
	}
}

func TestParsePairNoTab(t *testing.T) {
	p, err := ParsePair(Bytes, Int, "loneword")
	if err != nil {
		t.Fatal(err)
	}
	if string(p.Key.B) != "loneword" || p.Val.I != 0 {
		t.Fatalf("got %v", p)
	}
}

func TestParsePairValueWithTabs(t *testing.T) {
	p, err := ParsePair(Bytes, Bytes, "k\tv1\tv2")
	if err != nil {
		t.Fatal(err)
	}
	if string(p.Val.B) != "v1\tv2" {
		t.Fatalf("value = %q, want %q", p.Val.B, "v1\tv2")
	}
}

func TestCompareKinds(t *testing.T) {
	if Compare(StringValue("a"), StringValue("b")) >= 0 {
		t.Error("bytes compare failed")
	}
	if Compare(IntValue(-5), IntValue(3)) >= 0 {
		t.Error("int compare failed")
	}
	if Compare(FloatValue(1.5), FloatValue(1.5)) != 0 {
		t.Error("float equality failed")
	}
	if Compare(StringValue("z"), IntValue(0)) == 0 {
		t.Error("cross-kind compare should not be equal")
	}
}

func TestEncodedIntKeyOrderMatchesNumericOrder(t *testing.T) {
	s := Schema{KeyKind: Int}
	if err := quick.Check(func(a, b int64) bool {
		ea, eb := s.EncodeKey(IntValue(a)), s.EncodeKey(IntValue(b))
		byteOrder := bytes.Compare(ea, eb)
		numOrder := Compare(IntValue(a), IntValue(b))
		return sign(byteOrder) == sign(numOrder)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodedFloatKeyOrderMatchesNumericOrder(t *testing.T) {
	s := Schema{KeyKind: Float}
	vals := []float64{-1e300, -3.5, -0.0, 0.0, 1e-9, 2.25, 7, 1e300}
	for i, a := range vals {
		for j, b := range vals {
			ea, eb := s.EncodeKey(FloatValue(a)), s.EncodeKey(FloatValue(b))
			byteOrder := bytes.Compare(ea, eb)
			var numOrder int
			switch {
			case a < b:
				numOrder = -1
			case a > b:
				numOrder = 1
			}
			// -0.0 and +0.0 encode differently but are numerically equal;
			// accept either order for that single pair.
			if a == b && a == 0 {
				continue
			}
			if sign(byteOrder) != numOrder {
				t.Errorf("pair (%d,%d) (%v,%v): byte order %d, numeric %d", i, j, a, b, byteOrder, numOrder)
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := Schema{KeyKind: Bytes, ValKind: Int, KeyLen: 16}
	k := s.EncodeKey(StringValue("word"))
	if len(k) != 16 {
		t.Fatalf("slot len = %d, want 16", len(k))
	}
	if got := s.DecodeKey(k); string(got.B) != "word" {
		t.Fatalf("decode = %q", got.B)
	}
	v := s.EncodeVal(IntValue(-12345))
	if got := s.DecodeVal(v); got.I != -12345 {
		t.Fatalf("decode val = %d", got.I)
	}
}

func TestEncodeDecodeFloatRoundTrip(t *testing.T) {
	s := Schema{ValKind: Float}
	if err := quick.Check(func(f float64) bool {
		if math.IsNaN(f) {
			return true
		}
		got := s.DecodeVal(s.EncodeVal(FloatValue(f)))
		return got.F == f
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeBytesTruncatesToSlot(t *testing.T) {
	s := Schema{KeyKind: Bytes, KeyLen: 4}
	k := s.EncodeKey(StringValue("abcdefgh"))
	if len(k) != 4 {
		t.Fatalf("len = %d", len(k))
	}
	if got := s.DecodeKey(k); string(got.B) != "abcd" {
		t.Fatalf("decode = %q", got.B)
	}
}

func TestPartitionStableAndInRange(t *testing.T) {
	keys := []Value{StringValue("a"), StringValue("zebra"), IntValue(17), FloatValue(2.5)}
	for _, k := range keys {
		p1 := Partition(k, 16)
		p2 := Partition(k, 16)
		if p1 != p2 {
			t.Fatalf("partition unstable for %v", k)
		}
		if p1 < 0 || p1 >= 16 {
			t.Fatalf("partition out of range: %d", p1)
		}
	}
	if Partition(StringValue("anything"), 1) != 0 {
		t.Fatal("single reducer must map to 0")
	}
}

func TestPartitionSpreads(t *testing.T) {
	seen := map[int]bool{}
	words := []string{"apple", "banana", "cherry", "date", "elder", "fig", "grape", "honey", "iris", "jade", "kiwi", "lemon"}
	for _, w := range words {
		seen[Partition(StringValue(w), 4)] = true
	}
	if len(seen) < 3 {
		t.Fatalf("hash partitioner used only %d of 4 buckets for %d keys", len(seen), len(words))
	}
}

func TestSortPairsOrdersByKey(t *testing.T) {
	pairs := []Pair{
		{StringValue("cherry"), IntValue(1)},
		{StringValue("apple"), IntValue(2)},
		{StringValue("banana"), IntValue(3)},
		{StringValue("apple"), IntValue(4)},
	}
	SortPairs(pairs)
	if string(pairs[0].Key.B) != "apple" || string(pairs[1].Key.B) != "apple" || string(pairs[2].Key.B) != "banana" {
		t.Fatalf("sorted order wrong: %v", pairs)
	}
	// Stability: the apple/2 pair preceded apple/4 before sorting.
	if pairs[0].Val.I != 2 || pairs[1].Val.I != 4 {
		t.Fatalf("sort not stable: %v", pairs)
	}
}

func TestSortPairsPropertySorted(t *testing.T) {
	if err := quick.Check(func(seed int64, n uint8) bool {
		cnt := int(n%200) + 1
		pairs := make([]Pair, cnt)
		x := uint64(seed)
		for i := range pairs {
			x = x*6364136223846793005 + 1442695040888963407
			pairs[i] = Pair{IntValue(int64(x % 1000)), IntValue(int64(i))}
		}
		SortPairs(pairs)
		return sort.SliceIsSorted(pairs, func(i, j int) bool {
			return pairs[i].Key.I < pairs[j].Key.I
		})
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortPairsEmptyAndSingle(t *testing.T) {
	SortPairs(nil)
	one := []Pair{{IntValue(1), IntValue(1)}}
	SortPairs(one)
	if one[0].Key.I != 1 {
		t.Fatal("single-element sort corrupted data")
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}
