package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden re-records every experiment's quick-fidelity CSV and the
// digest list:
//
//	go test ./internal/experiments -run TestGoldenResults -update
//
// Record on amd64 (arm64 fuses float multiply-adds, so its simulation can
// differ in the last bit). A change that moves any result re-records the
// files and says why in CHANGES.md; anything else that moves these bytes is
// a regression.
var updateGolden = flag.Bool("update", false, "re-record testdata/golden from a fresh run of every experiment")

var (
	goldenDir     = filepath.Join("testdata", "golden")
	goldenDigests = filepath.Join(goldenDir, "SHA256SUMS")
)

// TestGoldenResults pins what the simulator computes: every experiment at
// Quick fidelity must export byte-for-byte the checked-in CSV
// (testdata/golden/<id>.csv, the same bytes `kagura-bench -quick -format
// csv -out` writes), and each CSV must hash to its line in SHA256SUMS
// (`sha256sum -c` format), so the digest list alone identifies a result set.
func TestGoldenResults(t *testing.T) {
	var digests strings.Builder
	for _, id := range IDs() {
		r, err := sharedLab.Run(id)
		if err != nil {
			t.Fatalf("experiment %s: %v", id, err)
		}
		tbl := r.Render()
		var buf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		name := tbl.ID + ".csv"
		sum := sha256.Sum256(buf.Bytes())
		fmt.Fprintf(&digests, "%s  %s\n", hex.EncodeToString(sum[:]), name)
		path := filepath.Join(goldenDir, name)
		if *updateGolden {
			writeGolden(t, path, buf.Bytes())
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%v (re-record with -update)", err)
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: result differs from %s:\n--- got\n%s--- want\n%s", id, path, buf.Bytes(), want)
		}
	}
	if *updateGolden {
		writeGolden(t, goldenDigests, []byte(digests.String()))
		return
	}
	want, err := os.ReadFile(goldenDigests)
	if err != nil {
		t.Fatalf("%v (re-record with -update)", err)
	}
	if got := digests.String(); got != string(want) {
		t.Errorf("digest list differs from %s:\n--- got\n%s--- want\n%s", goldenDigests, got, want)
	}
}

func writeGolden(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
