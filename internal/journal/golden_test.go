package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kagura/internal/wire"
)

// updateGolden re-records the golden segment through the journal's own
// append path:
//
//	go test ./internal/journal -run TestGoldenSegment -update
//
// A format change must re-record the file and say so in CHANGES.md;
// anything else that moves these bytes is a regression.
var updateGolden = flag.Bool("update", false, "re-record testdata/golden by appending goldenRecords to a fresh journal")

var goldenSegment = filepath.Join("testdata", "golden", segmentName)

// goldenRecords is one record of each Type, in the order a campaign that
// dispatches one forked job writes them.
func goldenRecords() []Record {
	const key = "2874032b1a718fa39be81a75f2bbe1b9ef31b8c22c71bdc07aaa97b36b49033b"
	spec := json.RawMessage(`{"name":"golden","base":{"app":"jpeg","codec":"BDI","acc":true},"axes":[{"param":"scale","values":[0.02,0.03]}]}`)
	sum := sha256.Sum256(spec)
	return []Record{
		{Type: TypeCampaignStart, Campaign: "c1", SpecHash: hex.EncodeToString(sum[:]), CampaignSpec: spec},
		{
			Type: TypeJobSubmit, Key: key,
			Spec:       json.RawMessage(`{"app":"jpeg","scale":0.02,"codec":"BDI","acc":true}`),
			ForkCycles: 4096,
			ForkBase:   json.RawMessage(`{"app":"jpeg","scale":0.02}`),
		},
		{Type: TypeJobSettle, Key: key},
		{Type: TypeCampaignWave, Campaign: "c1", Wave: 1, Points: []int{0, 1}, Strategy: json.RawMessage(`{}`)},
		{Type: TypeCampaignDone, Campaign: "c1"},
	}
}

// TestGoldenSegment decodes the checked-in segment record by record and
// re-encodes it: the bytes must come back unchanged and the records must be
// goldenRecords. It never simulates, so it holds on every GOARCH.
func TestGoldenSegment(t *testing.T) {
	want := goldenRecords()
	if *updateGolden {
		dir := t.TempDir()
		j, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range want {
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		seg, err := os.ReadFile(filepath.Join(dir, segmentName))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenSegment), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFileAtomic(goldenSegment, seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(goldenSegment)
	if err != nil {
		t.Fatalf("%v (re-record with -update)", err)
	}

	if err := DecodeHeader(data); err != nil {
		t.Fatalf("golden segment header: %v", err)
	}
	again := EncodeHeader()
	var got []Record
	for off := len(again); off < len(data); {
		rec, n, err := DecodeRecord(data[off:])
		if err != nil {
			t.Fatalf("record %d at byte %d: %v", len(got), off, err)
		}
		blob, err := EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		again = append(again, blob...)
		got = append(got, rec)
		off += n
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("re-encoded segment differs from %s (%d vs %d bytes)", goldenSegment, len(again), len(data))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("golden records = %+v, want %+v", got, want)
	}
	seen := map[Type]bool{}
	for _, rec := range got {
		seen[rec.Type] = true
	}
	for typ := TypeJobSubmit; typ <= TypeCampaignDone; typ++ {
		if !seen[typ] {
			t.Errorf("golden segment has no %s record", typ)
		}
	}

	// The journal's own reader agrees: a clean segment whose fold is empty
	// (the job settled, the campaign finished).
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	ins, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ins.HeaderErr != nil || ins.Damage != nil || ins.TornBytes != 0 || len(ins.Records) != len(want) {
		t.Fatalf("Inspect: header=%v damage=%v torn=%d records=%d", ins.HeaderErr, ins.Damage, ins.TornBytes, len(ins.Records))
	}
	if len(ins.State.Pending) != 0 || len(ins.State.Campaigns) != 0 {
		t.Fatalf("fold = %d pending jobs, %d campaigns; want none", len(ins.State.Pending), len(ins.State.Campaigns))
	}
}
