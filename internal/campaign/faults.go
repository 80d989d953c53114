package campaign

import "kagura/internal/faultinject"

// Fault-injection points instrumenting the campaign engine (DESIGN.md §10
// catalogs them; the faultpoint analyzer ties each literal to
// faultinject.Registered). Disabled — the production default — each is one
// atomic load.
var (
	// fpDecode fires at the top of DecodeSpec (error-only): a rejected or
	// corrupted spec upload.
	fpDecode = faultinject.Point("campaign.decode")
	// fpDispatch fires before each batch submission to simsvc. An injected
	// error fails the campaign fast with code fault_injected and no report;
	// a latency rule delays the dispatch (the crash-recovery harness uses it
	// to hold a campaign mid-wave).
	fpDispatch = faultinject.Point("campaign.dispatch")
	// fpExport fires at the top of report export (error-only): a failed
	// report write surfaces to the caller instead of emitting a torn file.
	fpExport = faultinject.Point("campaign.export")
)
