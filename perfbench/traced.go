package main

import (
	"encoding/json"
	"net/http"

	"kagura/internal/obs"
	"kagura/internal/simsvc"
	"kagura/internal/workload"
)

// Each traced run makes one untraced pass of its workload and one traced
// pass of the same size; the difference of their walls is the tracing
// overhead. The traced pass supplies the counts; the probes that follow time
// each layer's public functions on the workload's inputs.

func traceHeadline(b *bench) error {
	opts := headlineOptions(b.seed)
	pass := func() (*headlinePass, error) {
		svc, lab, err := headlineSetup(opts)
		if err != nil {
			return nil, err
		}
		defer svc.Close()
		p, err := b.runHeadlinePass(svc, lab, opts)
		if err == nil {
			b.checkHeadline(p, "")
		}
		return p, err
	}
	var p0, p *headlinePass
	if err := b.untraced(func() (err error) { p0, err = pass(); return }); err != nil {
		return err
	}
	if err := b.runtimeDelta(func() (err error) { p, err = pass(); return }); err != nil {
		return err
	}
	b.setLayer("experiments.sims", float64(p.labMet.JobsRun), "count")
	b.setLayer("experiments.coalesced", float64(p.labMet.JobsCached), "count")
	b.setLayer("experiments.render_ms", p.renderMs, "ms")
	var specs []simsvc.RunSpec
	for _, app := range []string{"jpeg", "patricia"} {
		base := simsvc.RunSpec{App: app, Scale: opts.Scale, Seed: opts.Seeds[0]}
		acc := base
		acc.Codec, acc.ACC = "BDI", true
		kag := acc
		kag.Kagura = true
		specs = append(specs, base, acc, kag)
	}
	// A re-served op prepares its config (trace synthesis, config build,
	// fingerprint) before it asks the service; only the traced pass has
	// recorded spans yet.
	lts := b.tr.selfTimes()
	var prep float64
	for _, name := range []string{"powertrace.synth", "ehs.config", "simsvc.config_key"} {
		self, _ := selfOf(lts, name)
		prep += self
	}
	_, ops := selfOf(lts, "hit.op")
	in := probeInputs{apps: workload.Suite(opts.Scale), specs: specs, scale: opts.Scale, seed: opts.Seeds[0]}
	return b.reportLayers(in, passCounts{
		results: wireResults(p.results), met: p.met, jobs: p.jobs,
		hitMs: median(p.hit), hitPrepMs: prep / float64(ops), wallS: sec(p0.wall), traced: sec(p.wall),
	})
}

func traceCampaign(b *bench) error {
	cycle := func() (*campaignCycle, campaignSys, error) {
		sys, err := b.freshCampaignSys()
		if err != nil {
			return nil, sys, err
		}
		c, err := b.runCampaignCycle(sys)
		return c, sys, err
	}
	var c0, c *campaignCycle
	var sys campaignSys
	if err := b.untraced(func() (err error) { c0, _, err = cycle(); return }); err != nil {
		return err
	}
	if err := b.runtimeDelta(func() (err error) { c, sys, err = cycle(); return }); err != nil {
		return err
	}
	cold, restart := c.cold, c.restart
	var computeMs float64
	for _, js := range cold.jobs {
		for _, sp := range js.Trace {
			if sp.Phase == obs.PhaseCompute || sp.Phase == obs.PhaseWarmStart {
				computeMs += sp.Seconds * 1000
			}
		}
	}
	b.setLayer("campaign.points", float64(len(cold.jobs)), "count")
	b.setLayer("campaign.rounds", float64(cold.rounds), "count")
	b.setLayer("campaign.dispatch_ms", ms(cold.wall)-computeMs/2, "ms")

	// Reads are the restart pass's; writes, warm starts and appends are
	// summed over both passes.
	met := cold.met
	met.Store.ResultHits += restart.met.Store.ResultHits
	met.Store.ResultMisses += restart.met.Store.ResultMisses
	met.StorePublishDrops += restart.met.StorePublishDrops
	met.Journal.Appends += restart.met.Journal.Appends
	met.JobsCached += restart.met.JobsCached
	met.JobsRun += restart.met.JobsRun

	spec := sys.spec
	var specs []simsvc.RunSpec
	for _, pol := range []string{"AIMD", "MIAD", "AIAD", "MIMD"} {
		sp := spec.Base
		sp.Policy = pol
		specs = append(specs, sp)
	}
	base, err := spec.Base.Config()
	if err != nil {
		return err
	}
	app, err := workload.ByName(spec.Base.App, spec.Base.Scale)
	if err != nil {
		return err
	}
	in := probeInputs{apps: []*workload.App{app}, specs: specs, scale: spec.Base.Scale, seed: spec.Base.Seed,
		forkBase: &base, fork: spec.ForkPoint.Cycles}
	return b.reportLayers(in, passCounts{
		results: jobResults(cold.jobs), met: met, jobs: append(append([]simsvc.JobStatus(nil), cold.jobs...), restart.jobs...),
		hitMs: ms(restart.wall) / float64(len(restart.jobs)),
		wallS: sec(c0.cold.wall), traced: sec(cold.wall),
	})
}

func traceServe(b *bench) error {
	client := newClient()
	defer client.CloseIdleConnections()
	pass := func() (*serveResult, error) {
		s, sched, err := b.serveSetup(client)
		if err != nil {
			return nil, err
		}
		defer b.stopServer(s)
		return b.servePass(s, client, sched), nil
	}
	var r0, r *serveResult
	if err := b.untraced(func() (err error) { r0, err = pass(); return }); err != nil {
		return err
	}
	if err := b.runtimeDelta(func() (err error) { r, err = pass(); return }); err != nil {
		return err
	}
	var results []*simsvc.RunResult
	var late []float64
	var bytes float64
	for i, req := range r.sched {
		o := r.run.out[i]
		late = append(late, ms(o.late))
		bytes += float64(len(o.body))
		if req.hit || o.status != http.StatusOK {
			continue
		}
		var rr simsvc.RunResult
		if json.Unmarshal(o.body, &rr) == nil {
			results = append(results, &rr)
		}
	}
	b.setLayer("gen.lateness_p99_ms", quantile(late, 0.99), "ms")
	b.setLayer("http.resp_bytes", bytes/float64(len(r.sched)), "bytes")
	b.noteSteps(r.steps)

	var specs []simsvc.RunSpec
	var apps []*workload.App
	for _, req := range r.sched {
		if !req.hit && len(specs) < 6 {
			specs = append(specs, req.spec)
		}
	}
	for _, name := range []string{"jpeg", "patricia"} {
		app, err := workload.ByName(name, serveScale)
		if err != nil {
			return err
		}
		apps = append(apps, app)
	}
	in := probeInputs{apps: apps, specs: specs, scale: serveScale, seed: specs[0].Seed}
	return b.reportLayers(in, passCounts{
		results: results, met: r.run.jobsMet, jobs: r.run.jobs,
		hitMs: median(r.steps[middleStep].hitMs), wallS: sec(r0.run.wall), traced: sec(r.run.wall),
	})
}
