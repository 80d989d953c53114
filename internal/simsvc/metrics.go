package simsvc

import (
	"fmt"
	"strings"

	"kagura/internal/journal"
	"kagura/internal/obs"
	"kagura/internal/store"
)

// Histogram bucket bounds. Buckets are fixed — never adaptive — so the
// exposition stays byte-stable for a given set of observations and series
// remain comparable across restarts and deployments (DESIGN.md §11).
var (
	// latencySecondsBuckets spans sub-millisecond cache hits through
	// multi-minute sweep legs, roughly 2.5× apart.
	latencySecondsBuckets = []float64{
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
		1, 2.5, 5, 10, 30, 60, 120, 300,
	}
	// queueDepthBuckets are powers of two up to the default QueueDepth, plus
	// an explicit empty-queue bucket.
	queueDepthBuckets = []float64{
		0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
	}
	// sizeBytesBuckets cover 1 KiB through 64 MiB, 4× apart — results are a
	// few KiB without a cycle log and snapshots grow with trace position.
	sizeBytesBuckets = []float64{
		1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
		1 << 20, 4 << 20, 16 << 20, 64 << 20,
	}
)

// metrics holds the service counters; guarded by Service.mu.
type metrics struct {
	jobsRun      int64 // simulations actually executed
	jobsCached   int64 // jobs served from the cache or coalesced in flight
	jobsFailed   int64
	jobsCanceled int64

	// Per-stage latency accumulators (nanoseconds).
	queueNanos int64 // submit → worker pickup
	queueCount int64
	runNanos   int64 // worker pickup → successful completion
	runCount   int64

	// Warm-start snapshot cache outcomes. Each hit skips re-simulating the
	// base prefix, saving warmCyclesSaved simulated cycles in total.
	warmHits        int64
	warmMisses      int64
	warmCyclesSaved int64

	// Resilience counters.
	panicsRecovered int64 // compute panics caught by a worker
	jobsShed        int64 // submissions rejected by the load-shedding breaker
	degradedRuns    int64 // warm starts downgraded to cold runs
	// errorsByCode tallies terminal and rejection errors by taxonomy code.
	errorsByCode map[ErrorCode]int64

	// Result cache accounting: evictions from the bounded cache, and the
	// estimated bytes currently retained by ready entries.
	cacheEvictions int64
	cacheBytes     int64

	// storePublishDrops counts asynchronous store writes dropped because the
	// publish queue was full (persistence is best-effort; serving is not).
	storePublishDrops int64

	// journalReplayed counts jobs re-submitted from the intent journal at
	// startup (the journal's own counters live in journal.MetricsSnapshot).
	journalReplayed int64

	// Fixed-bucket histograms; guarded by Service.mu like the counters, so
	// the unsynchronized obs.Histogram is safe here.
	queueSecondsHist  *obs.Histogram
	runSecondsHist    *obs.Histogram
	queueDepthHist    *obs.Histogram
	resultBytesHist   *obs.Histogram
	snapshotBytesHist *obs.Histogram
}

// init constructs the histograms; called once from New before any job flows.
func (m *metrics) init() {
	m.queueSecondsHist = obs.NewHistogram(latencySecondsBuckets...)
	m.runSecondsHist = obs.NewHistogram(latencySecondsBuckets...)
	m.queueDepthHist = obs.NewHistogram(queueDepthBuckets...)
	m.resultBytesHist = obs.NewHistogram(sizeBytesBuckets...)
	m.snapshotBytesHist = obs.NewHistogram(sizeBytesBuckets...)
}

// countError books one error under its taxonomy code.
func (m *metrics) countError(code ErrorCode) {
	if m.errorsByCode == nil {
		m.errorsByCode = make(map[ErrorCode]int64)
	}
	m.errorsByCode[code]++
}

// MetricsSnapshot is a point-in-time view of the service counters.
type MetricsSnapshot struct {
	JobsRun      int64 `json:"jobsRun"`
	JobsCached   int64 `json:"jobsCached"`
	JobsFailed   int64 `json:"jobsFailed"`
	JobsCanceled int64 `json:"jobsCanceled"`
	QueueDepth   int   `json:"queueDepth"`
	Workers      int   `json:"workers"`
	CachedKeys   int   `json:"cachedKeys"`

	// Warm-start snapshot cache: reuse outcomes, cached snapshot count, and
	// total simulated cycles skipped by reusing prefixes.
	WarmStartHits   int64 `json:"warmStartHits"`
	WarmStartMisses int64 `json:"warmStartMisses"`
	WarmSnapshots   int   `json:"warmSnapshots"`
	WarmCyclesSaved int64 `json:"warmCyclesSaved"`

	// Per-stage latency: total seconds and sample counts.
	QueueSecondsTotal float64 `json:"queueSecondsTotal"`
	QueueSamples      int64   `json:"queueSamples"`
	RunSecondsTotal   float64 `json:"runSecondsTotal"`
	RunSamples        int64   `json:"runSamples"`

	// Resilience: recovered compute panics, shed submissions, warm starts
	// degraded to cold runs, the breaker state, and error totals keyed by
	// taxonomy code (only non-zero codes appear).
	PanicsRecovered int64            `json:"panicsRecovered"`
	JobsShed        int64            `json:"jobsShed"`
	DegradedRuns    int64            `json:"degradedRuns"`
	Shedding        bool             `json:"shedding"`
	Errors          map[string]int64 `json:"errors,omitempty"`

	// Result cache occupancy and eviction pressure. CacheCapacity is the
	// configured entry bound (0 = unbounded); CacheBytes estimates the bytes
	// retained by ready entries.
	CacheBytes     int64 `json:"cacheBytes"`
	CacheCapacity  int   `json:"cacheCapacity"`
	CacheEvictions int64 `json:"cacheEvictions"`

	// Persistent store tier (internal/store): enabled state, disk-tier
	// counters, and publishes dropped because the async write queue was
	// full. Store fields are all zero when the tier is disabled.
	StoreEnabled      bool                  `json:"storeEnabled"`
	Store             store.MetricsSnapshot `json:"store"`
	StorePublishDrops int64                 `json:"storePublishDrops"`

	// Intent journal (internal/journal): enabled state, the journal's own
	// counters, and jobs re-submitted by startup replay. Journal fields are
	// all zero when journaling is disabled.
	JournalEnabled      bool                    `json:"journalEnabled"`
	Journal             journal.MetricsSnapshot `json:"journal"`
	JournalReplayedJobs int64                   `json:"journalReplayedJobs"`

	// Latency and size distributions (fixed buckets; see DESIGN.md §11).
	QueueSeconds  obs.HistogramSnapshot `json:"queueSeconds"`
	RunSeconds    obs.HistogramSnapshot `json:"runSeconds"`
	QueueDepths   obs.HistogramSnapshot `json:"queueDepths"`
	ResultBytes   obs.HistogramSnapshot `json:"resultBytes"`
	SnapshotBytes obs.HistogramSnapshot `json:"snapshotBytes"`
}

// AvgQueueSeconds returns the mean submit→pickup latency.
func (m MetricsSnapshot) AvgQueueSeconds() float64 {
	if m.QueueSamples == 0 {
		return 0
	}
	return m.QueueSecondsTotal / float64(m.QueueSamples)
}

// AvgRunSeconds returns the mean execution latency of completed runs.
func (m MetricsSnapshot) AvgRunSeconds() float64 {
	if m.RunSamples == 0 {
		return 0
	}
	return m.RunSecondsTotal / float64(m.RunSamples)
}

// Metrics returns a snapshot of the service counters.
func (s *Service) Metrics() MetricsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := MetricsSnapshot{
		JobsRun:           s.met.jobsRun,
		JobsCached:        s.met.jobsCached,
		JobsFailed:        s.met.jobsFailed,
		JobsCanceled:      s.met.jobsCanceled,
		QueueDepth:        len(s.queue),
		Workers:           s.opts.Workers,
		QueueSecondsTotal: float64(s.met.queueNanos) / 1e9,
		QueueSamples:      s.met.queueCount,
		RunSecondsTotal:   float64(s.met.runNanos) / 1e9,
		RunSamples:        s.met.runCount,
		WarmStartHits:     s.met.warmHits,
		WarmStartMisses:   s.met.warmMisses,
		WarmSnapshots:     len(s.warm),
		WarmCyclesSaved:   s.met.warmCyclesSaved,
		PanicsRecovered:   s.met.panicsRecovered,
		JobsShed:          s.met.jobsShed,
		DegradedRuns:      s.met.degradedRuns,
		Shedding:          s.shedding,
		CacheBytes:        s.met.cacheBytes,
		CacheCapacity:     s.opts.CacheCapacity,
		CacheEvictions:    s.met.cacheEvictions,
		StorePublishDrops: s.met.storePublishDrops,
		QueueSeconds:      s.met.queueSecondsHist.Snapshot(),
		RunSeconds:        s.met.runSecondsHist.Snapshot(),
		QueueDepths:       s.met.queueDepthHist.Snapshot(),
		ResultBytes:       s.met.resultBytesHist.Snapshot(),
		SnapshotBytes:     s.met.snapshotBytesHist.Snapshot(),
	}
	snap.JournalReplayedJobs = s.met.journalReplayed
	if s.store != nil {
		snap.StoreEnabled = true
		snap.Store = s.store.Metrics()
	}
	if s.jnl != nil {
		snap.JournalEnabled = true
		// The journal lock is a leaf (it never takes s.mu), so nesting it
		// under s.mu here cannot deadlock.
		snap.Journal = s.jnl.Metrics()
	}
	if len(s.met.errorsByCode) > 0 {
		snap.Errors = make(map[string]int64, len(s.met.errorsByCode))
		// Fixed iteration over the code catalog, not the map: rendering paths
		// downstream must stay byte-stable.
		for _, code := range errorCodes {
			if n := s.met.errorsByCode[code]; n > 0 {
				snap.Errors[string(code)] = n
			}
		}
	}
	snap.CachedKeys = s.lru.Len() // the LRU lists exactly the ready entries
	return snap
}

// Prometheus renders the snapshot in the Prometheus text exposition format
// (GET /metrics).
func (m MetricsSnapshot) Prometheus() string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }
	w("# HELP kagura_jobs_total Jobs by terminal outcome.\n")
	w("# TYPE kagura_jobs_total counter\n")
	w("kagura_jobs_total{status=\"run\"} %d\n", m.JobsRun)
	w("kagura_jobs_total{status=\"cached\"} %d\n", m.JobsCached)
	w("kagura_jobs_total{status=\"failed\"} %d\n", m.JobsFailed)
	w("kagura_jobs_total{status=\"canceled\"} %d\n", m.JobsCanceled)
	w("# HELP kagura_queue_depth Jobs waiting for a worker.\n")
	w("# TYPE kagura_queue_depth gauge\n")
	w("kagura_queue_depth %d\n", m.QueueDepth)
	w("# HELP kagura_workers Size of the worker pool.\n")
	w("# TYPE kagura_workers gauge\n")
	w("kagura_workers %d\n", m.Workers)
	w("# HELP kagura_cached_keys Distinct memoized configurations.\n")
	w("# TYPE kagura_cached_keys gauge\n")
	w("kagura_cached_keys %d\n", m.CachedKeys)
	w("# HELP kagura_stage_seconds_total Cumulative per-stage latency.\n")
	w("# TYPE kagura_stage_seconds_total counter\n")
	w("kagura_stage_seconds_total{stage=\"queue\"} %g\n", m.QueueSecondsTotal)
	w("kagura_stage_seconds_total{stage=\"run\"} %g\n", m.RunSecondsTotal)
	w("# HELP kagura_stage_samples_total Per-stage latency sample counts.\n")
	w("# TYPE kagura_stage_samples_total counter\n")
	w("kagura_stage_samples_total{stage=\"queue\"} %d\n", m.QueueSamples)
	w("kagura_stage_samples_total{stage=\"run\"} %d\n", m.RunSamples)
	w("# HELP kagura_warm_start_total Warm-start snapshot cache outcomes.\n")
	w("# TYPE kagura_warm_start_total counter\n")
	w("kagura_warm_start_total{result=\"hit\"} %d\n", m.WarmStartHits)
	w("kagura_warm_start_total{result=\"miss\"} %d\n", m.WarmStartMisses)
	w("# HELP kagura_warm_snapshots Cached warm-start snapshots.\n")
	w("# TYPE kagura_warm_snapshots gauge\n")
	w("kagura_warm_snapshots %d\n", m.WarmSnapshots)
	w("# HELP kagura_warm_cycles_saved_total Simulated cycles skipped by warm-start reuse.\n")
	w("# TYPE kagura_warm_cycles_saved_total counter\n")
	w("kagura_warm_cycles_saved_total %d\n", m.WarmCyclesSaved)
	w("# HELP kagura_panics_recovered_total Compute panics recovered by workers.\n")
	w("# TYPE kagura_panics_recovered_total counter\n")
	w("kagura_panics_recovered_total %d\n", m.PanicsRecovered)
	w("# HELP kagura_jobs_shed_total Submissions rejected by the load-shedding breaker.\n")
	w("# TYPE kagura_jobs_shed_total counter\n")
	w("kagura_jobs_shed_total %d\n", m.JobsShed)
	w("# HELP kagura_degraded_runs Warm starts degraded to cold runs.\n")
	w("# TYPE kagura_degraded_runs counter\n")
	w("kagura_degraded_runs %d\n", m.DegradedRuns)
	w("# HELP kagura_shedding Load-shedding breaker state (1 = open).\n")
	w("# TYPE kagura_shedding gauge\n")
	shedding := 0
	if m.Shedding {
		shedding = 1
	}
	w("kagura_shedding %d\n", shedding)
	w("# HELP kagura_errors_total Errors by taxonomy code.\n")
	w("# TYPE kagura_errors_total counter\n")
	// Every code renders every time, in catalog order — never by ranging the
	// map — so the exposition stays byte-stable.
	for _, code := range errorCodes {
		w("kagura_errors_total{code=%q} %d\n", string(code), m.Errors[string(code)])
	}
	w("# HELP kagura_cache_bytes Estimated bytes retained by the result cache.\n")
	w("# TYPE kagura_cache_bytes gauge\n")
	w("kagura_cache_bytes %d\n", m.CacheBytes)
	w("# HELP kagura_cache_capacity Result cache entry bound (0 = unbounded).\n")
	w("# TYPE kagura_cache_capacity gauge\n")
	w("kagura_cache_capacity %d\n", m.CacheCapacity)
	w("# HELP kagura_cache_evictions_total Results evicted from the bounded cache.\n")
	w("# TYPE kagura_cache_evictions_total counter\n")
	w("kagura_cache_evictions_total %d\n", m.CacheEvictions)
	// Persistent store tier. The families render unconditionally — zeros when
	// the tier is disabled — so the exposition stays byte-stable across
	// configurations with the same traffic.
	w("# HELP kagura_store_enabled Persistent store tier configured and open (1 = yes).\n")
	w("# TYPE kagura_store_enabled gauge\n")
	enabled := 0
	if m.StoreEnabled {
		enabled = 1
	}
	w("kagura_store_enabled %d\n", enabled)
	w("# HELP kagura_store_hits_total Persistent-store reads served, by entry kind.\n")
	w("# TYPE kagura_store_hits_total counter\n")
	w("kagura_store_hits_total{kind=\"result\"} %d\n", m.Store.ResultHits)
	w("kagura_store_hits_total{kind=\"checkpoint\"} %d\n", m.Store.CheckpointHits)
	w("# HELP kagura_store_misses_total Persistent-store reads that fell through to compute, by entry kind.\n")
	w("# TYPE kagura_store_misses_total counter\n")
	w("kagura_store_misses_total{kind=\"result\"} %d\n", m.Store.ResultMisses)
	w("kagura_store_misses_total{kind=\"checkpoint\"} %d\n", m.Store.CheckpointMisses)
	w("# HELP kagura_store_entries Entries indexed on disk.\n")
	w("# TYPE kagura_store_entries gauge\n")
	w("kagura_store_entries %d\n", m.Store.Entries)
	w("# HELP kagura_store_bytes Bytes retained on disk by indexed entries.\n")
	w("# TYPE kagura_store_bytes gauge\n")
	w("kagura_store_bytes %d\n", m.Store.Bytes)
	w("# HELP kagura_store_writes_total Entries written to the persistent store.\n")
	w("# TYPE kagura_store_writes_total counter\n")
	w("kagura_store_writes_total %d\n", m.Store.Writes)
	w("# HELP kagura_store_write_errors_total Persistent-store writes that failed.\n")
	w("# TYPE kagura_store_write_errors_total counter\n")
	w("kagura_store_write_errors_total %d\n", m.Store.WriteErrors)
	w("# HELP kagura_store_evictions_total Entries evicted under the disk budget.\n")
	w("# TYPE kagura_store_evictions_total counter\n")
	w("kagura_store_evictions_total %d\n", m.Store.Evictions)
	w("# HELP kagura_store_corrupt_entries_total Corrupt or torn entries quarantined by the persistent store.\n")
	w("# TYPE kagura_store_corrupt_entries_total counter\n")
	w("kagura_store_corrupt_entries_total %d\n", m.Store.CorruptEntries)
	w("# HELP kagura_store_publish_drops_total Asynchronous store writes dropped because the publish queue was full.\n")
	w("# TYPE kagura_store_publish_drops_total counter\n")
	w("kagura_store_publish_drops_total %d\n", m.StorePublishDrops)
	// Intent journal. Like the store families: unconditional, zeros when off.
	w("# HELP kagura_journal_enabled Intent journal configured and open (1 = yes).\n")
	w("# TYPE kagura_journal_enabled gauge\n")
	jEnabled := 0
	if m.JournalEnabled {
		jEnabled = 1
	}
	w("kagura_journal_enabled %d\n", jEnabled)
	w("# HELP kagura_journal_appends_total Records appended to the intent journal.\n")
	w("# TYPE kagura_journal_appends_total counter\n")
	w("kagura_journal_appends_total %d\n", m.Journal.Appends)
	w("# HELP kagura_journal_append_errors_total Journal appends refused or failed.\n")
	w("# TYPE kagura_journal_append_errors_total counter\n")
	w("kagura_journal_append_errors_total %d\n", m.Journal.AppendErrors)
	w("# HELP kagura_journal_rotations_total Journal segment compactions.\n")
	w("# TYPE kagura_journal_rotations_total counter\n")
	w("kagura_journal_rotations_total %d\n", m.Journal.Rotations)
	w("# HELP kagura_journal_corrupt_segments_total Journal segments quarantined as unreadable.\n")
	w("# TYPE kagura_journal_corrupt_segments_total counter\n")
	w("kagura_journal_corrupt_segments_total %d\n", m.Journal.CorruptSegments)
	w("# HELP kagura_journal_bytes Live journal segment size on disk.\n")
	w("# TYPE kagura_journal_bytes gauge\n")
	w("kagura_journal_bytes %d\n", m.Journal.SizeBytes)
	w("# HELP kagura_journal_pending_jobs Unsettled job intents in the journal fold.\n")
	w("# TYPE kagura_journal_pending_jobs gauge\n")
	w("kagura_journal_pending_jobs %d\n", m.Journal.PendingJobs)
	w("# HELP kagura_journal_replayed_jobs_total Jobs re-submitted from the journal at startup.\n")
	w("# TYPE kagura_journal_replayed_jobs_total counter\n")
	w("kagura_journal_replayed_jobs_total %d\n", m.JournalReplayedJobs)
	w("# HELP kagura_job_phase_seconds Job latency by phase.\n")
	w("# TYPE kagura_job_phase_seconds histogram\n")
	m.QueueSeconds.WritePrometheus(&b, "kagura_job_phase_seconds", `phase="queue"`)
	m.RunSeconds.WritePrometheus(&b, "kagura_job_phase_seconds", `phase="run"`)
	w("# HELP kagura_queue_depth_observed Queue depth sampled at each enqueue.\n")
	w("# TYPE kagura_queue_depth_observed histogram\n")
	m.QueueDepths.WritePrometheus(&b, "kagura_queue_depth_observed", "")
	w("# HELP kagura_result_bytes Estimated retained size of each cached result.\n")
	w("# TYPE kagura_result_bytes histogram\n")
	m.ResultBytes.WritePrometheus(&b, "kagura_result_bytes", "")
	w("# HELP kagura_warm_snapshot_bytes Encoded size of each warm-start snapshot.\n")
	w("# TYPE kagura_warm_snapshot_bytes histogram\n")
	m.SnapshotBytes.WritePrometheus(&b, "kagura_warm_snapshot_bytes", "")
	return b.String()
}
