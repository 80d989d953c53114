package ckpt

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"kagura/internal/ehs"
	"kagura/internal/wire"
)

// updateGolden re-records the golden encodings from a fresh simulation:
//
//	go test ./internal/ckpt -run TestGolden -update
//
// Record on amd64 (arm64 fuses float multiply-adds, so its simulation can
// differ in the last bit). A format change must re-record the files and say
// so in CHANGES.md; anything else that moves these bytes is a regression.
var updateGolden = flag.Bool("update", false, "re-record testdata/golden from a fresh simulation")

// The golden files pin the version-1 on-disk encodings: a checkpoint of
// jpeg at mid-run with ACC, Kagura and the cycle log on (so every optional
// section is present), and that run's final result.
var (
	goldenCheckpoint = filepath.Join("testdata", "golden", "checkpoint.bin")
	goldenResult     = filepath.Join("testdata", "golden", "result.bin")
)

// readGolden returns a golden file's bytes, first re-recording it with
// record when -update is set.
func readGolden(t *testing.T, path string, record func() []byte) []byte {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFileAtomic(path, record(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (re-record with -update)", err)
	}
	return data
}

// TestGoldenCheckpoint decodes the checked-in checkpoint and re-encodes it:
// the bytes must come back unchanged. It never simulates, so it holds on
// every GOARCH.
func TestGoldenCheckpoint(t *testing.T) {
	data := readGolden(t, goldenCheckpoint, func() []byte {
		snap, _ := testSnapshot(t, "jpeg", midCycle(t, "jpeg"))
		b, err := Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		return b
	})
	snap, err := Decode(data)
	if err != nil {
		t.Fatalf("decode golden checkpoint: %v", err)
	}
	again, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("re-encoded checkpoint differs from %s (%d vs %d bytes)", goldenCheckpoint, len(again), len(data))
	}
	if !bytes.HasPrefix(data, []byte(Magic)) {
		t.Fatalf("golden checkpoint lacks magic %q", Magic)
	}
	// Field values pin the layout beyond the round trip: a codec that swaps
	// two same-width fields in both directions re-encodes identically, but
	// decodes these wrong.
	if want := "c40aba3d24e59775e3b01e74dfd73b35b0895296a38f5afcda578404de924ace"; snap.ConfigHash != want {
		t.Errorf("ConfigHash = %q, want %q", snap.ConfigHash, want)
	}
	if snap.Pred == nil || snap.Kag == nil {
		t.Errorf("golden checkpoint lost its ACC/Kagura sections (pred=%v kag=%v)", snap.Pred != nil, snap.Kag != nil)
	}
	got := [5]int64{snap.Pos, snap.Time, snap.PoweredCycles, snap.Res.Executed, snap.Res.PowerCycles}
	if want := [5]int64{3652, 452000, 6886, 3652, 1}; got != want || snap.Res.Completed {
		t.Errorf("pos, time, powered, executed, power cycles = %v, completed = %v; want %v, false",
			got, snap.Res.Completed, want)
	}
}

// TestGoldenResult is TestGoldenCheckpoint for the standalone result codec
// (the payload of a store result entry).
func TestGoldenResult(t *testing.T) {
	data := readGolden(t, goldenResult, func() []byte {
		res, err := ehs.Run(testConfig(t, "jpeg"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	})
	res, err := DecodeResult(data)
	if err != nil {
		t.Fatalf("decode golden result: %v", err)
	}
	again, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("re-encoded result differs from %s (%d vs %d bytes)", goldenResult, len(again), len(data))
	}
	got := [6]int64{res.Committed, res.PowerCycles, int64(len(res.Cycles)), res.Compressions, res.Decompressions, res.KaguraRMEntries}
	if want := [6]int64{29996, 6, 7, 1780, 5926, 6}; got != want || !res.Completed {
		t.Errorf("committed, power cycles, cycle records, compressions, decompressions, RM entries = %v, completed = %v; want %v, true",
			got, res.Completed, want)
	}
}
