package campaign

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"kagura/internal/faultinject"
	"kagura/internal/simsvc"
)

// Service backpressure is the one failure the engine re-dispatches: a
// one-worker service with a two-slot queue, its compute slowed by a
// latency-only rule, sheds part of every wave chunk. The engine re-dispatches
// each shed chunk (the content-addressed cache coalesces the points that did
// get in), and the report is byte-identical to a clean run.
func TestCampaignBackpressureRedispatchIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a campaign twice")
	}
	faultinject.Disable()
	cleanSvc := newTestService(t, 4)
	cleanJSON, cleanCSV := exports(t, runCampaign(t, cleanSvc, smallSpec()))

	// Delay only, no error: 200 ms per compute keeps the queue occupied long
	// enough for the breaker to shed (at 20 ms nothing is shed). A submission
	// must arrive before the worker drains the queue, so on a host or build
	// (-race) where preparing one spec takes longer, the delay grows to three
	// spec preparations. Resubmitting the settled baseline is a cache hit, so
	// it times exactly that preparation.
	latency := 200 * time.Millisecond
	start := time.Now()
	if _, err := cleanSvc.Submit(*smallSpec().Baseline); err != nil {
		t.Fatal(err)
	}
	if prep := 3 * time.Since(start); prep > latency {
		latency = prep
	}
	if err := faultinject.Enable(faultinject.Plan{Seed: 11, Rules: []faultinject.Rule{
		{Point: "simsvc.compute", Kind: faultinject.KindLatency, Every: 1, LatencyMicros: latency.Microseconds()},
	}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)

	svc := simsvc.New(simsvc.Options{Workers: 1, QueueDepth: 2})
	t.Cleanup(svc.Close)
	met := &Metrics{}
	rep, err := (&Runner{Svc: svc, Met: met}).Run(context.Background(), smallSpec())
	if err != nil {
		t.Fatalf("campaign under backpressure failed: %v", err)
	}
	shed, redispatched := svc.Metrics().JobsShed, met.Snapshot().DispatchRetries
	t.Logf("shed %d submissions, re-dispatched %d chunks", shed, redispatched)
	if shed == 0 {
		t.Fatal("no submission was shed; the setup is not exercising backpressure")
	}
	if redispatched == 0 {
		t.Fatal("submissions were shed but no chunk was re-dispatched")
	}
	gotJSON, gotCSV := exports(t, rep)
	if !bytes.Equal(cleanJSON, gotJSON) {
		t.Errorf("JSON report differs under backpressure:\n%s\n---\n%s", cleanJSON, gotJSON)
	}
	if !bytes.Equal(cleanCSV, gotCSV) {
		t.Errorf("CSV report differs under backpressure:\n%s\n---\n%s", cleanCSV, gotCSV)
	}
}

// A chunk the service refuses outright, because another client holds the
// whole queue, has no admitted job to pace its re-dispatch on. The engine
// waits out the service's Retry-After estimate instead of spending its
// re-dispatch bound in a millisecond, so the campaign completes once the
// other client's jobs drain, with the clean run's report.
func TestCampaignRedispatchWaitsWhenNothingAdmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a campaign twice")
	}
	faultinject.Disable()
	cleanJSON, cleanCSV := exports(t, runCampaign(t, newTestService(t, 4), smallSpec()))

	if err := faultinject.Enable(faultinject.Plan{Seed: 11, Rules: []faultinject.Rule{
		{Point: "simsvc.compute", Kind: faultinject.KindLatency, Every: 1, LatencyMicros: 100_000},
	}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)
	svc := simsvc.New(simsvc.Options{Workers: 1, QueueDepth: 2})
	t.Cleanup(svc.Close)
	// Another client keeps the one worker busy and holds the queue at its
	// high-water mark, so the service refuses all work until they drain.
	busy, err := svc.Submit(simsvc.RunSpec{App: "gsm", Scale: 0.002, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	for st, _ := svc.Job(busy.ID()); st.State == simsvc.StateQueued; st, _ = svc.Job(busy.ID()) {
		runtime.Gosched()
	}
	if _, err := svc.Submit(simsvc.RunSpec{App: "gsm", Scale: 0.002, Seed: 101}); err != nil {
		t.Fatal(err)
	}
	met := &Metrics{}
	rep, err := (&Runner{Svc: svc, Met: met}).Run(context.Background(), smallSpec())
	if err != nil {
		t.Fatalf("campaign behind another client's backlog failed: %v", err)
	}
	if met.Snapshot().DispatchRetries == 0 {
		t.Fatal("no chunk was re-dispatched; the setup is not exercising a refused chunk")
	}
	gotJSON, gotCSV := exports(t, rep)
	if !bytes.Equal(cleanJSON, gotJSON) || !bytes.Equal(cleanCSV, gotCSV) {
		t.Error("report differs from the clean run")
	}
}

// An injected campaign.dispatch error is not backpressure: the campaign
// fails fast with the fault_injected code and produces no report.
func TestCampaignDispatchFaultFailsFast(t *testing.T) {
	faultinject.Disable()
	if err := faultinject.Enable(faultinject.Plan{Seed: 11, Rules: []faultinject.Rule{
		{Point: "campaign.dispatch", Kind: faultinject.KindError, Every: 2, Message: "chaos: dispatch"},
	}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)

	met := &Metrics{}
	rep, err := (&Runner{Svc: newTestService(t, 4), Met: met}).Run(context.Background(), smallSpec())
	if err == nil {
		t.Fatal("campaign settled despite an injected dispatch fault")
	}
	if code := simsvc.Classify(err); code != simsvc.CodeFaultInjected {
		t.Fatalf("Classify(%v) = %q, want %q", err, code, simsvc.CodeFaultInjected)
	}
	if rep != nil {
		t.Fatalf("a failed campaign produced a partial report: %+v", rep)
	}
	if got := faultinject.Fires("campaign.dispatch"); got != 1 {
		t.Fatalf("campaign.dispatch fired %d times, want 1 (no re-dispatch after the fault)", got)
	}
	snap := met.Snapshot()
	if snap.DispatchRetries != 0 {
		t.Fatalf("DispatchRetries = %d, want 0: a fault is not backpressure", snap.DispatchRetries)
	}
	if snap.Failed != 1 || snap.Completed != 0 {
		t.Fatalf("campaign counters = %+v, want exactly one failed run", snap)
	}
}

// campaign.decode and campaign.export fail closed: an injected fault
// surfaces as an error instead of a torn spec or report.
func TestCampaignDecodeExportFaultsFailClosed(t *testing.T) {
	faultinject.Disable()
	if err := faultinject.Enable(faultinject.Plan{Seed: 3, Rules: []faultinject.Rule{
		{Point: "campaign.decode", Kind: faultinject.KindError, Every: 1, Message: "chaos: decode"},
		{Point: "campaign.export", Kind: faultinject.KindError, Every: 1, Message: "chaos: export"},
	}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)

	if _, err := DecodeSpec(bytes.NewReader([]byte(`{"base":{"app":"jpeg"},"axes":[{"param":"scale","values":[1]}]}`))); err == nil {
		t.Errorf("DecodeSpec ignored the injected decode fault")
	}
	rep := &Report{}
	if _, err := rep.ExportJSON(); err == nil {
		t.Errorf("ExportJSON ignored the injected export fault")
	}
	if _, err := rep.ExportCSV(); err == nil {
		t.Errorf("ExportCSV ignored the injected export fault")
	}
}
