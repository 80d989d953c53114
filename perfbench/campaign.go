package main

import (
	"bytes"
	"context"
	"runtime"

	"os"
	"path/filepath"
	"sync"
	"time"

	"kagura/internal/campaign"
	"kagura/internal/ehs"
	"kagura/internal/journal"
	"kagura/internal/obs"
	"kagura/internal/rng"
	"kagura/internal/simsvc"
)

// campaignBase is the base point of the campaign workload: jpeg at scale
// 1.0 with ACC+Kagura on RFHome seed 1. The trace is the same for every
// workload seed: a different trace changes the length of every point's run,
// which would swamp run-to-run comparisons.
func campaignBase() simsvc.RunSpec {
	return simsvc.RunSpec{App: "jpeg", Scale: 1.0, Trace: "RFHome", Seed: 1, Codec: "BDI", ACC: true, Kagura: true}
}

// The campaign's axes: policy (4) × increaseStep (4, §VIII-H5 sweeps
// 0.05–0.20) × counterBits (3).
var (
	policies      = []any{"AIMD", "MIAD", "AIAD", "MIMD"}
	increaseSteps = []any{0.05, 0.1, 0.15, 0.2}
	counterBits   = []any{1, 2, 3}
)

// campaignSpec is the 48-point grid policy × increaseStep × counterBits,
// forked at forkCycles, half the base run. The workload seed sets the
// campaign seed and the order of each axis's values, so the points run in a
// different order under each seed; the set of points, and so the work, is
// the same on every seed.
func campaignSpec(seed uint64, forkCycles int64) (*campaign.Spec, error) {
	r := rng.New(seed + 1)
	axis := func(param string, vs []any) campaign.Axis {
		a := campaign.Axis{Param: param}
		for _, i := range r.Perm(len(vs)) {
			a.Values = append(a.Values, mustJSON(vs[i]))
		}
		return a
	}
	spec := &campaign.Spec{
		Name: "perfbench-campaign",
		Seed: seed + 1,
		Base: campaignBase(),
		Axes: []campaign.Axis{
			axis("policy", policies),
			axis("increaseStep", increaseSteps),
			axis("counterBits", counterBits),
		},
		Mode:      campaign.ModeCross,
		Strategy:  campaign.StrategyGrid,
		ForkPoint: &simsvc.ForkPoint{Cycles: forkCycles},
	}
	return spec, spec.Validate()
}

// baseCycles runs the base spec once and returns its simulated length in
// cycles; the campaign forks at half of it.
func baseCycles() (int64, error) {
	cfg, err := campaignBase().Config()
	if err != nil {
		return 0, err
	}
	res, err := ehs.Run(cfg)
	if err != nil {
		return 0, err
	}
	return int64(res.ExecSeconds / ehs.CyclePeriod), nil
}

// campaignSys is a service with its store and journal on, as kagura-serve
// -store-dir runs them: the store in dir, the journal in dir/journal.
type campaignSys struct {
	dir  string
	jnl  *journal.Journal
	svc  *simsvc.Service
	spec *campaign.Spec
}

func openCampaignSys(b *bench, dir string, parent int64) (campaignSys, error) {
	var jnl *journal.Journal
	var err error
	b.tr.timeSpan("journal.open", parent, 0, func() { jnl, err = journal.Open(filepath.Join(dir, "journal")) })
	if err != nil {
		return campaignSys{}, err
	}
	var svc *simsvc.Service
	b.tr.timeSpan("simsvc.new", parent, 0, func() {
		svc = simsvc.New(simsvc.Options{Workers: 2, StoreDir: dir, Journal: jnl})
	})
	if err := svc.StoreErr(); err != nil {
		svc.Close()
		jnl.Close()
		return campaignSys{}, err
	}
	return campaignSys{dir: dir, jnl: jnl, svc: svc}, nil
}

// close shuts the service down (flushing store writes) before the journal,
// whose final flush must succeed.
func (c campaignSys) close(b *bench, parent int64) {
	b.tr.timeSpan("simsvc.close", parent, 0, c.svc.Close)
	var err error
	b.tr.timeSpan("journal.close", parent, 0, func() { err = c.jnl.Close() })
	b.check(err == nil, "campaign: journal close: %v", err)
}

// campaignRun is one pass's outcome.
type campaignRun struct {
	wall   time.Duration
	cpu    time.Duration // process CPU time over the same span as wall
	report []byte
	points []float64 // per point: ms in the pass's working phase
	jobs   []simsvc.JobStatus
	met    simsvc.MetricsSnapshot
	rounds int
}

// runCampaignPass runs the campaign to its JSON report on sys, then closes
// sys. The pass's wall covers the run, the export and the close (the store
// is durable when it ends); restart passes add the reopen via start.
func (b *bench) runCampaignPass(sys campaignSys, spec *campaign.Spec, id, phase string, start time.Time, startCPU time.Duration, root *open) (*campaignRun, error) {
	var mu sync.Mutex
	var ids []string
	runner := &campaign.Runner{
		Svc: sys.svc, Jnl: sys.jnl, CampaignID: id,
		Progress: func(_, _ int, jobID string) {
			mu.Lock()
			ids = append(ids, jobID)
			mu.Unlock()
		},
	}
	var rep *campaign.Report
	var err error
	b.tr.timeSpan("campaign.run", root.id(), 0, func() { rep, err = runner.Run(context.Background(), spec) })
	if err != nil {
		sys.close(b, root.id())
		return nil, err
	}
	out := &campaignRun{rounds: rep.Rounds}
	b.tr.timeSpan("campaign.export", root.id(), 0, func() { out.report, err = rep.ExportJSON() })
	if err != nil {
		sys.close(b, root.id())
		return nil, err
	}
	for _, jid := range ids {
		js, jerr := sys.svc.Job(jid)
		b.check(jerr == nil && js.State == simsvc.StateDone && js.Error == "", "campaign %s job %s: %v %s %s", id, jid, jerr, js.State, js.Error)
		out.jobs = append(out.jobs, js)
		out.points = append(out.points, phaseMs(js.Trace, phase))
	}
	out.met = sys.svc.Metrics()
	sys.close(b, root.id())
	out.wall = time.Since(start)
	out.cpu = cpuNow() - startCPU
	root.end()
	return out, nil
}

// phaseMs is a job's time in one trace phase, in ms.
func phaseMs(trace []obs.Span, phase string) float64 {
	var s float64
	for _, sp := range trace {
		if sp.Phase == phase {
			s += sp.Seconds
		}
	}
	return s * 1000
}

// campaignCycle is one cold pass into a fresh directory followed by one
// restart pass over it.
type campaignCycle struct {
	cold, restart *campaignRun
}

func (b *bench) runCampaignCycle(sys campaignSys) (*campaignCycle, error) {
	spec := sys.spec
	root := b.tr.start("campaign.cold_pass", 0, 0)
	// A cold point's latency is its post-fork simulation, without the wait
	// for the shared warm-start snapshot (that is in cpu_s); a restart
	// point's is its store read.
	cold, err := b.runCampaignPass(sys, spec, "cold", obs.PhaseCompute, time.Now(), cpuNow(), root)
	if err != nil {
		return nil, err
	}
	// Collect the cold pass's garbage untimed, so the restart pass starts
	// from the heap a restarted process would have.
	runtime.GC()
	t0, c0 := time.Now(), cpuNow()
	root = b.tr.start("campaign.restart_pass", 0, 0)
	sys, err = openCampaignSys(b, sys.dir, root.id())
	if err != nil {
		return nil, err
	}
	restart, err := b.runCampaignPass(sys, spec, "restart", obs.PhaseStore, t0, c0, root)
	if err != nil {
		return nil, err
	}
	b.check(bytes.Equal(cold.report, restart.report), "campaign restart report differs from the cold report (%d vs %d bytes)", len(restart.report), len(cold.report))
	computed := 0
	for _, js := range restart.jobs {
		for _, sp := range js.Trace {
			if sp.Phase == obs.PhaseCompute || sp.Phase == obs.PhaseWarmStart {
				computed++
			}
		}
	}
	b.check(computed == 0 && restart.met.Store.ResultHits == int64(len(restart.jobs)),
		"campaign restart pass: %d compute spans and %d store hits for %d points, want 0 and all", computed, restart.met.Store.ResultHits, len(restart.jobs))
	return &campaignCycle{cold, restart}, nil
}

// freshCampaignSys is the campaign's set-up: generate the inputs from the
// seed (one base run fixes the fork point at half its length) and open a
// service over an empty directory.
func (b *bench) freshCampaignSys() (campaignSys, error) {
	cycles, err := baseCycles()
	if err != nil {
		return campaignSys{}, err
	}
	spec, err := campaignSpec(b.seed, cycles/2)
	if err != nil {
		return campaignSys{}, err
	}
	dir, err := os.MkdirTemp(b.dir, "campaign-")
	if err != nil {
		return campaignSys{}, err
	}
	sys, err := openCampaignSys(b, dir, 0)
	sys.spec = spec
	return sys, err
}

// runCampaign is the untraced campaign workload.
func runCampaign(b *bench) error {
	setupT, sys, err := repeatSetup(b.freshCampaignSys, func(c campaignSys) { c.close(b, 0); os.RemoveAll(c.dir) })
	if err != nil {
		return err
	}
	var passes batchPasses
	points := 0
	start := time.Now()
	for {
		t0 := time.Now()
		c, err := b.runCampaignCycle(sys)
		if err != nil {
			return err
		}
		passes.add(c.cold.wall, c.cold.cpu, c.cold.points)
		passes.addRestart(c.restart.wall, c.restart.cpu, c.restart.points)
		points = len(c.cold.jobs)
		os.RemoveAll(sys.dir)
		if time.Since(start)+time.Since(t0) > b.seconds {
			break
		}
		// Collect the last pass's garbage untimed, so each pass starts
		// from the heap a fresh process would have.
		runtime.GC()
		if sys, err = b.freshCampaignSys(); err != nil {
			return err
		}
	}
	b.batchE2E(setupT, &passes, points)
	b.note("campaign: %d cold+restart cycle(s) of %d points, forked at cycle %d", len(passes.cpus), points, sys.spec.ForkPoint.Cycles)
	return nil
}
