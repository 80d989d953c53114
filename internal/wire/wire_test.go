package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// le32 returns v as four little-endian bytes.
func le32(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.Header("TESTMAG\x00", 7)
	w.U8(0xAB)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(math.MaxUint64)
	w.I64(-42)
	w.F64(math.Copysign(0, -1))
	w.Bool(true)
	w.Bool(false)
	w.Bytes([]byte("payload"))
	w.Bytes(nil)
	w.Str("key")
	w.Frame([]byte("framed"))

	r := NewReader("test", w)
	r.Header("TESTMAG\x00", 7)
	if got := r.U8(); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	if got := r.U16(); got != 0xBEEF {
		t.Errorf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != math.MaxUint64 {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.F64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Errorf("F64 lost the sign bit: %v", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip")
	}
	if got := r.Bytes(); string(got) != "payload" {
		t.Errorf("Bytes = %q", got)
	}
	if got := r.Bytes(); got != nil {
		t.Errorf("empty Bytes = %#v, want nil", got)
	}
	if got := r.Str(3); got != "key" {
		t.Errorf("Str = %q", got)
	}
	if got := r.Frame(6); string(got) != "framed" {
		t.Errorf("Frame = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestCountBounds: a count is accepted only if the remaining input could
// hold that many minimum-size elements, and prefixes at and past 2³¹ — which
// go negative as a 32-bit int — fail instead of reaching a slice expression.
func TestCountBounds(t *testing.T) {
	cases := []struct {
		name    string
		data    []byte
		minElem int
		want    int
		ok      bool
	}{
		{"zero", le32(0), 8, 0, true},
		{"exact fit", append(le32(2), make([]byte, 16)...), 8, 2, true},
		{"one too many", append(le32(3), make([]byte, 16)...), 8, 0, false},
		{"2^31", append(le32(1<<31), make([]byte, 16)...), 1, 0, false},
		{"2^31+1", append(le32(1<<31+1), make([]byte, 16)...), 1, 0, false},
		{"2^32-1", append(le32(1<<32-1), make([]byte, 16)...), 1, 0, false},
		{"overflowing product", append(le32(1<<30), make([]byte, 16)...), 8, 0, false},
		{"truncated prefix", []byte{1, 0}, 1, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader("test", tc.data)
			got := r.Count(tc.minElem)
			if got != tc.want || (r.Err() == nil) != tc.ok {
				t.Fatalf("Count = %d, err %v; want %d, ok %v", got, r.Err(), tc.want, tc.ok)
			}
		})
	}
	r := NewReader("test", []byte{0xFF, 0xFF, 1, 2, 3})
	if n := r.Count16(1); n != 0 || r.Err() == nil {
		t.Fatalf("Count16 accepted 65535 elements in 3 bytes (n=%d)", n)
	}
}

func TestStrBounds(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		ok   bool
	}{
		{"at limit", append(le32(4), "abcd"...), true},
		{"over limit", append(le32(5), "abcde"...), false},
		{"truncated", append(le32(4), "abc"...), false},
		{"2^31", append(le32(1<<31), "abcd"...), false},
		{"2^31+1", append(le32(1<<31+1), "abcd"...), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader("test", tc.data)
			s := r.Str(4)
			if (r.Err() == nil) != tc.ok {
				t.Fatalf("Str = %q, err %v; want ok %v", s, r.Err(), tc.ok)
			}
		})
	}
}

// TestFrameBounds: a frame fails on truncation, on a length over the limit
// (including every length ≥ 2³¹), and on a checksum mismatch, and the first
// error sticks.
func TestFrameBounds(t *testing.T) {
	var good Writer
	good.Frame([]byte("hello"))
	withLen := func(n uint32) []byte {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(b, n)
		return b
	}
	flipped := append([]byte(nil), good...)
	flipped[FrameOverhead] ^= 1
	cases := []struct {
		name string
		data []byte
		ok   bool
	}{
		{"good", good, true},
		{"empty", nil, false},
		{"header only", good[:FrameOverhead], false},
		{"short payload", good[:len(good)-1], false},
		{"over limit", withLen(6), false},
		{"2^31", withLen(1 << 31), false},
		{"2^31+1", withLen(1<<31 + 1), false},
		{"2^32-1", withLen(1<<32 - 1), false},
		{"bad checksum", flipped, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader("test", tc.data)
			payload := r.Frame(5)
			if (r.Err() == nil) != tc.ok {
				t.Fatalf("Frame = %q, err %v; want ok %v", payload, r.Err(), tc.ok)
			}
			if tc.ok && !bytes.Equal(payload, []byte("hello")) {
				t.Fatalf("Frame = %q", payload)
			}
			if !tc.ok && (payload != nil || r.U8() != 0 || r.Done() == nil) {
				t.Fatal("reads after an error must return zero values and keep the error")
			}
		})
	}
	// A frame over the caller's limit fails before the payload is touched,
	// even when the input does hold that many bytes.
	r := NewReader("test", good)
	if n, _ := r.FrameHeader(4); n != 0 || r.Err() == nil {
		t.Fatalf("FrameHeader accepted a 5-byte frame under a 4-byte limit (n=%d)", n)
	}
}

func TestHeaderAndStrictness(t *testing.T) {
	var w Writer
	w.Header("MAGIC\x00\x00\x00", 1)
	for name, tc := range map[string]struct {
		data    []byte
		magic   string
		version uint16
	}{
		"bad magic":     {w, "OTHER\x00\x00\x00", 1},
		"wrong version": {w, "MAGIC\x00\x00\x00", 2},
		"truncated":     {w[:9], "MAGIC\x00\x00\x00", 1},
	} {
		r := NewReader("test", tc.data)
		r.Header(tc.magic, tc.version)
		if r.Err() == nil {
			t.Errorf("%s: header accepted", name)
		}
	}
	if r := NewReader("test", []byte{2}); r.Bool() || r.Err() == nil {
		t.Error("Bool accepted byte 2")
	}
	r := NewReader("test", []byte{0, 0})
	r.U8()
	if r.Done() == nil {
		t.Error("Done accepted a trailing byte")
	}
}
