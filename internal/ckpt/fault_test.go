package ckpt

import (
	"testing"

	"kagura/internal/faultinject"
)

// armPlan enables a fault plan for one test, disarming on cleanup.
func armPlan(t *testing.T, p faultinject.Plan) {
	t.Helper()
	if err := faultinject.Enable(p); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)
}

// An armed ckpt.encode fault surfaces as an Encode error, so chaos plans can
// kill checkpointing upstream of file IO.
func TestEncodeFaultPoint(t *testing.T) {
	snap, _ := testSnapshot(t, "jpeg", 1000)
	if _, err := Encode(snap); err != nil {
		t.Fatalf("clean encode failed: %v", err)
	}

	armPlan(t, faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Point: "ckpt.encode", Kind: faultinject.KindError, Nth: 1},
	}})
	if _, err := Encode(snap); err == nil {
		t.Fatal("injected encode fault did not surface")
	}
}
