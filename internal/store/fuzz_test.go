package store

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// FuzzStoreDecode drives DecodeEntry with arbitrary bytes. The contract:
// decode never panics and never silently misreads — it either errors, or
// returns a header+payload whose re-encoding is byte-identical to the input
// (the entry format has exactly one encoding per value).
func FuzzStoreDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(Magic))
	for _, seed := range [][2]string{
		{"some-sha256-like-key", "payload bytes"},
		{"k", ""},
		{strings.Repeat("K", MaxKeyLen), strings.Repeat("p", 1000)},
	} {
		for _, kind := range Kinds {
			data, err := EncodeEntry(kind, seed[0], []byte(seed[1]))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := DecodeEntry(data)
		if err != nil {
			return
		}
		out, err := EncodeEntry(h.Kind, h.Key, payload)
		if err != nil {
			t.Fatalf("decoded entry failed to encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("encode/decode fixed point violated")
		}
	})
}

func FuzzStoreDecodeHeader(f *testing.F) {
	data, err := EncodeEntry(KindCheckpoint, "warm-key", []byte("snapshot"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:headerLen("warm-key")])
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; errors are the expected outcome for junk.
		DecodeHeader(data)
	})
}

func TestEncodeEntryValidation(t *testing.T) {
	if _, err := EncodeEntry(Kind(99), "k", nil); err == nil {
		t.Fatal("EncodeEntry accepted an unknown kind")
	}
	if _, err := EncodeEntry(KindResult, "", nil); err == nil {
		t.Fatal("EncodeEntry accepted an empty key")
	}
	if _, err := EncodeEntry(KindResult, strings.Repeat("k", MaxKeyLen+1), nil); err == nil {
		t.Fatal("EncodeEntry accepted an oversized key")
	}
	if _, err := EncodeEntry(KindResult, strings.Repeat("k", MaxKeyLen), nil); err != nil {
		t.Fatalf("EncodeEntry rejected a max-length key: %v", err)
	}
}

// TestDecodeEntryRejectsDamage walks the corruption table: truncations at
// every structural boundary, bit flips in every region, and length-prefix
// lies. Every case must error — and none may panic.
func TestDecodeEntryRejectsDamage(t *testing.T) {
	key := "a-result-key"
	payload := []byte("sixteen payloadz")
	good, err := EncodeEntry(KindResult, key, payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeEntry(good); err != nil {
		t.Fatalf("pristine entry rejected: %v", err)
	}

	hdr := headerLen(key)
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"magic only", []byte(Magic)},
		{"truncated mid-magic", good[:4]},
		{"truncated before kind", good[:len(Magic)+2]},
		{"truncated mid-key", good[:len(Magic)+2+1+4+3]},
		{"truncated before checksum", good[:hdr-4]},
		{"header only, payload missing", good[:hdr]},
		{"truncated mid-payload", good[:len(good)-5]},
		{"one trailing byte", append(append([]byte{}, good...), 0)},
		{"bad magic", flip(good, 0)},
		{"bad version", flip(good, len(Magic))},
		{"bad kind", flip(good, len(Magic)+2)},
		{"huge key length", flip(good, len(Magic)+2+1+3)}, // high byte of keylen
		{"flipped payload length", flip(good, hdr-8)},
		{"flipped checksum", flip(good, hdr-4)},
		{"flipped payload bit", flip(good, hdr+2)},
		{"zero-length key", func() []byte {
			b := append([]byte{}, good...)
			for i := 0; i < 4; i++ {
				b[len(Magic)+2+1+i] = 0
			}
			return b
		}()},
		// Prefixes at and past 2³¹ go negative as a 32-bit int; they must
		// fail the bounds, not slice out of range.
		{"key length 2^31+1", setU32(good, len(Magic)+2+1, 1<<31+1)},
		{"payload length 2^31", setU32(good, hdr-8, 1<<31)},
		{"payload length 2^32-1", setU32(good, hdr-8, 1<<32-1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := DecodeEntry(tc.data); err == nil {
				t.Fatalf("DecodeEntry accepted damaged input (%d bytes)", len(tc.data))
			}
		})
	}
}

// flip returns a copy of data with one bit flipped at offset i.
func flip(data []byte, i int) []byte {
	out := append([]byte{}, data...)
	out[i] ^= 0x01
	return out
}

// setU32 returns a copy of data with a little-endian uint32 written at i.
func setU32(data []byte, i int, v uint32) []byte {
	out := append([]byte{}, data...)
	binary.LittleEndian.PutUint32(out[i:], v)
	return out
}

func TestDecodeHeaderFromPrefix(t *testing.T) {
	// The startup scan hands DecodeHeader at most maxHeaderLen bytes; for a
	// short key that prefix includes payload bytes, which must be ignored.
	data, err := EncodeEntry(KindResult, "short", bytes.Repeat([]byte{5}, 2*maxHeaderLen))
	if err != nil {
		t.Fatal(err)
	}
	h, err := DecodeHeader(data[:maxHeaderLen])
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind != KindResult || h.Key != "short" || h.PayloadLen != 2*maxHeaderLen {
		t.Fatalf("header = %+v", h)
	}
}
