package obs

import "strings"

// The metric-name catalog: every kagura_* family the service exposes on
// /metrics, as named constants. Dashboards, alerts, and recording rules key
// off these strings, so a rename must be a reviewed diff here — the
// metricstable analyzer (internal/lint) rejects any kagura_* literal
// elsewhere in the module that is not one of these values, bans names built
// with format verbs, and flags catalog entries no package renders.
//
// Grouped the way Metrics.Prometheus renders them; keep names lowercase
// with single underscores (the analyzer checks the shape too).
const (
	// Service throughput and occupancy.
	MetricJobsTotal  = "kagura_jobs_total"
	MetricQueueDepth = "kagura_queue_depth"
	MetricWorkers    = "kagura_workers"
	MetricCachedKeys = "kagura_cached_keys"

	// Stage timings.
	MetricStageSecondsTotal = "kagura_stage_seconds_total"
	MetricStageSamplesTotal = "kagura_stage_samples_total"

	// Warm-start snapshot cache.
	MetricWarmStartTotal       = "kagura_warm_start_total"
	MetricWarmSnapshots        = "kagura_warm_snapshots"
	MetricWarmCyclesSavedTotal = "kagura_warm_cycles_saved_total"
	MetricWarmSnapshotBytes    = "kagura_warm_snapshot_bytes"

	// Resilience: recovered panics, shedding, degradation, classified errors.
	MetricPanicsRecoveredTotal = "kagura_panics_recovered_total"
	MetricJobsShedTotal        = "kagura_jobs_shed_total"
	MetricDegradedRuns         = "kagura_degraded_runs"
	MetricShedding             = "kagura_shedding"
	MetricErrorsTotal          = "kagura_errors_total"

	// In-memory result cache.
	MetricCacheBytes          = "kagura_cache_bytes"
	MetricCacheCapacity       = "kagura_cache_capacity"
	MetricCacheEvictionsTotal = "kagura_cache_evictions_total"

	// Persistent on-disk store.
	MetricStoreEnabled           = "kagura_store_enabled"
	MetricStoreHitsTotal         = "kagura_store_hits_total"
	MetricStoreMissesTotal       = "kagura_store_misses_total"
	MetricStoreEntries           = "kagura_store_entries"
	MetricStoreBytes             = "kagura_store_bytes"
	MetricStoreWritesTotal       = "kagura_store_writes_total"
	MetricStoreWriteErrorsTotal  = "kagura_store_write_errors_total"
	MetricStoreEvictionsTotal    = "kagura_store_evictions_total"
	MetricStoreCorruptTotal      = "kagura_store_corrupt_entries_total"
	MetricStorePublishDropsTotal = "kagura_store_publish_drops_total"

	// Durable intent journal (internal/journal).
	MetricJournalEnabled              = "kagura_journal_enabled"
	MetricJournalAppendsTotal         = "kagura_journal_appends_total"
	MetricJournalAppendErrorsTotal    = "kagura_journal_append_errors_total"
	MetricJournalRotationsTotal       = "kagura_journal_rotations_total"
	MetricJournalCorruptSegmentsTotal = "kagura_journal_corrupt_segments_total"
	MetricJournalBytes                = "kagura_journal_bytes"
	MetricJournalPendingJobs          = "kagura_journal_pending_jobs"
	MetricJournalReplayedJobsTotal    = "kagura_journal_replayed_jobs_total"

	// Histograms.
	MetricJobPhaseSeconds    = "kagura_job_phase_seconds"
	MetricQueueDepthObserved = "kagura_queue_depth_observed"
	MetricResultBytes        = "kagura_result_bytes"

	// Campaign engine (internal/campaign). The kagura_campaign prefix is the
	// family split tests key on: these render from the campaign exposition,
	// everything above from the simsvc exposition.
	MetricCampaignsTotal          = "kagura_campaigns_total"
	MetricCampaignRunning         = "kagura_campaign_running"
	MetricCampaignPointsSubmitted = "kagura_campaign_points_submitted_total"
	MetricCampaignRoundsTotal     = "kagura_campaign_rounds_total"
	MetricCampaignDispatchRetries = "kagura_campaign_dispatch_retries_total"
	MetricCampaignExportsTotal    = "kagura_campaign_exports_total"
	MetricCampaignResumedTotal    = "kagura_campaign_resumed_total"
)

// KnownMetricNames returns every catalogued family name, in declaration
// order. Tests assert the exposition renders exactly this set.
func KnownMetricNames() []string {
	return []string{
		MetricJobsTotal,
		MetricQueueDepth,
		MetricWorkers,
		MetricCachedKeys,
		MetricStageSecondsTotal,
		MetricStageSamplesTotal,
		MetricWarmStartTotal,
		MetricWarmSnapshots,
		MetricWarmCyclesSavedTotal,
		MetricWarmSnapshotBytes,
		MetricPanicsRecoveredTotal,
		MetricJobsShedTotal,
		MetricDegradedRuns,
		MetricShedding,
		MetricErrorsTotal,
		MetricCacheBytes,
		MetricCacheCapacity,
		MetricCacheEvictionsTotal,
		MetricStoreEnabled,
		MetricStoreHitsTotal,
		MetricStoreMissesTotal,
		MetricStoreEntries,
		MetricStoreBytes,
		MetricStoreWritesTotal,
		MetricStoreWriteErrorsTotal,
		MetricStoreEvictionsTotal,
		MetricStoreCorruptTotal,
		MetricStorePublishDropsTotal,
		MetricJournalEnabled,
		MetricJournalAppendsTotal,
		MetricJournalAppendErrorsTotal,
		MetricJournalRotationsTotal,
		MetricJournalCorruptSegmentsTotal,
		MetricJournalBytes,
		MetricJournalPendingJobs,
		MetricJournalReplayedJobsTotal,
		MetricJobPhaseSeconds,
		MetricQueueDepthObserved,
		MetricResultBytes,
		MetricCampaignsTotal,
		MetricCampaignRunning,
		MetricCampaignPointsSubmitted,
		MetricCampaignRoundsTotal,
		MetricCampaignDispatchRetries,
		MetricCampaignExportsTotal,
		MetricCampaignResumedTotal,
	}
}

// IsCampaignMetric reports whether a catalogued family renders from the
// campaign exposition rather than the simsvc exposition. The prefix is
// derived from a catalog entry (never spelled as a literal) and matches both
// kagura_campaign_* and kagura_campaigns_total.
func IsCampaignMetric(name string) bool {
	prefix := strings.TrimSuffix(MetricCampaignRunning, "_running")
	return strings.HasPrefix(name, prefix)
}
