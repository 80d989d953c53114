package store

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"kagura/internal/ckpt"
	"kagura/internal/wire"
)

// updateGolden re-records the golden entries from the ckpt package's golden
// payloads (re-record those first when the ckpt format changes):
//
//	go test ./internal/store -run TestGoldenEntries -update
//
// A format change must re-record the files and say so in CHANGES.md;
// anything else that moves these bytes is a regression.
var updateGolden = flag.Bool("update", false, "re-record testdata/golden from the ckpt golden payloads")

// goldenKey is the result entry's key; the checkpoint entry uses the
// warm-start key shape built on it.
const goldenKey = "2874032b1a718fa39be81a75f2bbe1b9ef31b8c22c71bdc07aaa97b36b49033b"

// TestGoldenEntries decodes one checked-in entry per Kind and re-encodes it:
// the bytes must come back unchanged, and the payload must still decode with
// the ckpt codec its kind names. It never simulates, so it holds on every
// GOARCH.
func TestGoldenEntries(t *testing.T) {
	cases := []struct {
		kind    Kind
		key     string
		payload string // the ckpt golden file the entry frames
		decode  func([]byte) error
	}{
		{KindResult, goldenKey, "result.bin", func(b []byte) error {
			_, err := ckpt.DecodeResult(b)
			return err
		}},
		{KindCheckpoint, "warm|" + goldenKey + "|4096", "checkpoint.bin", func(b []byte) error {
			_, err := ckpt.Decode(b)
			return err
		}},
	}
	if len(cases) != len(Kinds) {
		t.Fatalf("golden entries cover %d kinds, the catalog has %d", len(cases), len(Kinds))
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			path := filepath.Join("testdata", "golden", tc.kind.String()+entryExt)
			if *updateGolden {
				payload, err := os.ReadFile(filepath.Join("..", "ckpt", "testdata", "golden", tc.payload))
				if err != nil {
					t.Fatal(err)
				}
				entry, err := EncodeEntry(tc.kind, tc.key, payload)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := wire.WriteFileAtomic(path, entry, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (re-record with -update)", err)
			}

			h, payload, err := DecodeEntry(data)
			if err != nil {
				t.Fatalf("decode golden entry: %v", err)
			}
			again, err := EncodeEntry(h.Kind, h.Key, payload)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("re-encoded entry differs from %s (%d vs %d bytes)", path, len(again), len(data))
			}
			if h.Kind != tc.kind || h.Key != tc.key || h.PayloadLen != len(payload) {
				t.Errorf("header = {kind %s, key %q, paylen %d}, want {kind %s, key %q, paylen %d}",
					h.Kind, h.Key, h.PayloadLen, tc.kind, tc.key, len(payload))
			}
			if err := tc.decode(payload); err != nil {
				t.Errorf("%s payload no longer decodes: %v", tc.kind, err)
			}
		})
	}
}
