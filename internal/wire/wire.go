// Package wire holds the on-disk byte primitives every kagura file format
// shares: a bounded little-endian Reader and its matching Writer, the
// magic+version header, the CRC-32C checksummed frame, and WriteFileAtomic.
// Checkpoints and results (internal/ckpt), store entries (internal/store) and
// journal segments (internal/journal) are all built from these pieces, so
// each hardening rule below is written once.
//
// Encoding rules: integers are little-endian and fixed-width; floats are
// IEEE-754 bit patterns (so encode∘decode is the identity on every value,
// including NaN payloads); bools are one byte, 0 or 1; byte strings carry a
// u32 length prefix.
//
// Decoding rules: the Reader carries the first error and every read after it
// is a no-op returning the zero value, so decode logic reads straight-line
// and checks Err once. Every length prefix is bounded by the bytes actually
// remaining before anything is sliced or allocated — compared without
// overflow, so a prefix ≥ 2³¹ is rejected on 32-bit builds too — and no input
// can cause a panic. The boundeddecode analyzer trusts Count and Count16 as
// the only length-bounding reads in the module.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Writer accumulates an encoding. Appends cannot fail; the encoding of equal
// values is always equal bytes.
type Writer []byte

// U8 appends one byte.
func (w *Writer) U8(v uint8) { *w = append(*w, v) }

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { *w = binary.LittleEndian.AppendUint16(*w, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { *w = binary.LittleEndian.AppendUint32(*w, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { *w = binary.LittleEndian.AppendUint64(*w, v) }

// I64 appends an int64 as its two's-complement uint64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64's IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends 1 for true, 0 for false.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.U8(b)
}

// Bytes appends b with a u32 length prefix.
func (w *Writer) Bytes(b []byte) { w.U32(uint32(len(b))); *w = append(*w, b...) }

// Str appends s with a u32 length prefix.
func (w *Writer) Str(s string) { w.U32(uint32(len(s))); *w = append(*w, s...) }

// Header appends a format header: the magic bytes, then the version.
func (w *Writer) Header(magic string, version uint16) {
	*w = append(*w, magic...)
	w.U16(version)
}

// FrameOverhead is the bytes a checksummed frame adds before its payload:
// a u32 length and a u32 CRC-32C.
const FrameOverhead = 4 + 4

// crcTable is the Castagnoli polynomial table: CRC-32C has hardware support
// on common CPUs and reliably catches the bit-flip corruption a torn write or
// chaos plan produces.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame appends a checksummed frame: [u32 len][u32 CRC-32C][payload]. The
// caller bounds len(payload) by the maximum its reader will accept.
func (w *Writer) Frame(payload []byte) {
	w.U32(uint32(len(payload)))
	w.U32(crc32.Checksum(payload, crcTable))
	*w = append(*w, payload...)
}

// Reader parses an encoding, carrying the first error. Errors read
// "<prefix>: <what> at offset <n>", prefix naming the format's package.
type Reader struct {
	data   []byte
	off    int
	err    error
	prefix string
}

// NewReader returns a Reader over data whose errors carry prefix.
func NewReader(prefix string, data []byte) *Reader {
	return &Reader{data: data, prefix: prefix}
}

// Err returns the first error the reader hit, or nil.
func (r *Reader) Err() error { return r.err }

// Offset returns the number of bytes consumed so far.
func (r *Reader) Offset() int { return r.off }

// remaining returns the number of bytes not yet consumed.
func (r *Reader) remaining() int { return len(r.data) - r.off }

// Fail records a decode error unless one is already set; every read after it
// is a no-op. Callers use it for semantic checks (an unknown kind byte) so
// those errors share the reader's prefix and ordering.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.prefix+": "+format+" at offset %d", append(args, r.off)...)
	}
}

// take consumes and returns the next n bytes, aliasing the input. A negative
// n or one past the end fails the reader and returns nil.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.remaining() {
		r.Fail("truncated: need %d bytes, have %d", n, r.remaining())
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64 written by Writer.I64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64 bit pattern written by Writer.F64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a strict bool: any byte other than 0 or 1 is an error, so every
// accepted input has exactly one encoding.
func (r *Reader) Bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		r.Fail("invalid boolean byte %#x", b[0])
		return false
	}
	return b[0] == 1
}

// Count reads a u32 element count and bounds it by the bytes remaining,
// given that each element occupies at least minElemBytes (≥ 1): a hostile
// prefix can never force an allocation larger than the input itself.
func (r *Reader) Count(minElemBytes int) int {
	return r.bound(uint64(r.U32()), minElemBytes)
}

// Count16 is Count for u16-prefixed collections.
func (r *Reader) Count16(minElemBytes int) int {
	return r.bound(uint64(r.U16()), minElemBytes)
}

// bound checks n elements of at least minElemBytes each against the bytes
// remaining. It divides rather than multiplies, so no prefix overflows int on
// any GOARCH.
func (r *Reader) bound(n uint64, minElemBytes int) int {
	if r.err != nil {
		return 0
	}
	if n > uint64(r.remaining()/minElemBytes) {
		r.Fail("count %d exceeds remaining input (%d bytes, ≥%d each)", n, r.remaining(), minElemBytes)
		return 0
	}
	return int(n)
}

// Bytes reads a u32-length-prefixed byte string and returns a copy (nil when
// empty), so decoded values never alias the input buffer.
func (r *Reader) Bytes() []byte {
	b := r.take(r.Count(1))
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// Str reads a u32-length-prefixed string of at most maxLen bytes.
func (r *Reader) Str(maxLen int) string {
	n := r.Count(1)
	if r.err == nil && n > maxLen {
		r.Fail("string length %d exceeds limit %d", n, maxLen)
	}
	return string(r.take(n))
}

// Header checks a format header written by Writer.Header. A wrong magic or
// any version but the one given fails the reader: format changes bump the
// version, and old readers must fail loudly rather than misinterpret newer
// layouts.
func (r *Reader) Header(magic string, version uint16) {
	if m := r.take(len(magic)); r.err == nil && string(m) != magic {
		r.off -= len(magic)
		r.Fail("bad magic %q", m)
	}
	if v := r.U16(); r.err == nil && v != version {
		r.off -= 2
		r.Fail("unknown format version %d (this build reads version %d)", v, version)
	}
}

// FrameHeader reads a frame's length and checksum without its payload (the
// store's startup scan reads headers only). A length above maxLen fails the
// reader; the comparison is unsigned, so it holds on 32-bit builds too.
func (r *Reader) FrameHeader(maxLen int) (n int, sum uint32) {
	length := r.U32()
	sum = r.U32()
	if r.err != nil {
		return 0, 0
	}
	if uint64(length) > uint64(maxLen) {
		r.off -= FrameOverhead
		r.Fail("frame payload %d bytes exceeds limit %d", length, maxLen)
		return 0, 0
	}
	return int(length), sum
}

// FramePayload reads the n payload bytes of a frame whose header
// FrameHeader returned, and checks them against sum. The payload aliases the
// input.
func (r *Reader) FramePayload(n int, sum uint32) []byte {
	payload := r.take(n)
	if r.err != nil {
		return nil
	}
	if got := crc32.Checksum(payload, crcTable); got != sum {
		r.off -= FrameOverhead + n
		r.Fail("payload checksum %08x does not match frame %08x", got, sum)
		return nil
	}
	return payload
}

// Frame reads a whole checksummed frame and returns its payload, aliasing
// the input. Truncation, a length above maxLen and a checksum mismatch all
// fail the reader.
func (r *Reader) Frame(maxLen int) []byte { return r.FramePayload(r.FrameHeader(maxLen)) }

// Done returns the first error, or an error if any input is left unread:
// trailing bytes mean the input is not the encoding of one value.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.data) {
		r.Fail("%d trailing bytes", r.remaining())
	}
	return r.err
}
