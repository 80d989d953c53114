// Package decodefixture is a fixture for the boundeddecode analyzer: a make
// sized by a raw wire-read length is flagged — including a hand-rolled
// count helper, which the analyzer cannot see into; lengths from
// wire.(*Reader).Count/Count16 or bounded by an explicit comparison pass. A
// lower-bound check alone (n > 0) clears nothing.
package decodefixture

import (
	"encoding/binary"

	"kagura/internal/wire"
)

const maxElems = 1 << 10

type reader struct {
	buf []byte
	off int
}

func (r *reader) u32() uint32 {
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// count reads a u32 element count and bounds it against the remaining
// input, assuming each element occupies at least minElemBytes; -1 means the
// buffer cannot hold the claimed count.
func (r *reader) count(minElemBytes int) int {
	n := int(r.u32())
	if n < 0 || n*minElemBytes > len(r.buf)-r.off {
		return -1
	}
	return n
}

func decodeRaw(r *reader) []uint64 {
	n := int(r.u32())
	return make([]uint64, n) // want `allocation sized by an unbounded wire-read length`
}

func decodeInline(r *reader) []byte {
	return make([]byte, r.u32()) // want `allocation sized by an unbounded wire-read length`
}

func decodeBinary(buf []byte) []byte {
	n := binary.BigEndian.Uint16(buf)
	return make([]byte, int(n)) // want `allocation sized by an unbounded wire-read length`
}

func decodeWithCap(r *reader) []byte {
	n := int(r.u32())
	return make([]byte, 0, n) // want `allocation sized by an unbounded wire-read length`
}

func decodeLowerBoundOnly(r *reader) []byte {
	n := int(r.u32())
	if n > 0 {
		return make([]byte, n) // want `allocation sized by an unbounded wire-read length`
	}
	return nil
}

func decodeHandCounted(r *reader) []uint64 {
	n := r.count(8)
	if n < 0 {
		return nil
	}
	return make([]uint64, n) // want `allocation sized by an unbounded wire-read length`
}

func decodeWireRaw(r *wire.Reader) []uint32 {
	n := int(r.U32())
	return make([]uint32, n) // want `allocation sized by an unbounded wire-read length`
}

func decodeWireWide(r *wire.Reader) []byte {
	return make([]byte, r.I64()) // want `allocation sized by an unbounded wire-read length`
}

// --- Legal patterns: everything below must produce no findings. ---

func decodeWireCounted(r *wire.Reader) []uint64 {
	n := r.Count(8)
	return make([]uint64, n)
}

func decodeWireCounted16(r *wire.Reader) []uint16 {
	return make([]uint16, r.Count16(2))
}

func decodeGuarded(r *reader) []byte {
	n := int(r.u32())
	if n > maxElems {
		return nil
	}
	return make([]byte, n)
}

func decodeCompared(r *reader) []byte {
	n := int(r.u32())
	if n <= len(r.buf)-r.off {
		return make([]byte, n)
	}
	return nil
}

func decodeSuppressed(r *reader) []byte {
	n := int(r.u32())
	//kagura:allow boundeddecode fixture: caller has already validated the frame length against the transport cap
	return make([]byte, n)
}

func allocConst() []byte {
	return make([]byte, maxElems)
}
