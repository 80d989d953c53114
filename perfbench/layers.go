package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"kagura/internal/cache"
	"kagura/internal/capacitor"
	"kagura/internal/ckpt"
	"kagura/internal/compress"
	"kagura/internal/ehs"
	"kagura/internal/journal"
	"kagura/internal/kagura"
	"kagura/internal/nvm"
	"kagura/internal/obs"
	"kagura/internal/powertrace"
	"kagura/internal/simsvc"
	"kagura/internal/store"
	"kagura/internal/workload"
)

// The traced run times calls into each layer's public functions from
// outside, on the workload's own inputs, and reads the layers' counters from
// ehs.Result, simsvc.MetricsSnapshot and the store/journal snapshots.

// probeInputs are the workload-derived inputs of the layer probes.
type probeInputs struct {
	apps     []*workload.App  // instruction streams for the core-layer probes
	specs    []simsvc.RunSpec // representative specs of the workload
	scale    float64          // workload length of the ehs probe runs
	seed     uint64           // power-trace seed of the probe runs
	forkBase *ehs.Config      // the fork snapshot's base (nil: jpeg ACC+Kagura)
	fork     int64            // the fork cycle (0: half the base run)
}

// Each app's cache stream is sampled as streamWindows windows of
// streamWindow instructions spread evenly over the whole app.
const (
	streamWindows = 10
	streamWindow  = 20000
)

// coreNs are the per-call costs of the simulator-core layers.
type coreNs struct {
	cursor, capStep, access, fill, read, write, memop float64
	probe                                             map[string]float64
}

// timerOverhead is the cost of one time.Now/time.Since pair, subtracted from
// per-call timings.
func timerOverhead() float64 {
	const n = 100000
	t0 := time.Now()
	var sink time.Duration
	for i := 0; i < n; i++ {
		s := time.Now()
		sink += time.Since(s)
	}
	_ = sink
	return float64(time.Since(t0)) / n
}

// ref is one cache reference: an instruction fetch or a data access.
type ref struct {
	fetch bool
	addr  uint32
	write bool
	value uint32
}

// streamRefs samples app's reference stream: per instruction, its fetch and,
// for memory ops, its data access, in the order the simulator issues them.
func streamRefs(app *workload.App) []ref {
	var out []ref
	cur := workload.NewCursor(app)
	for w := int64(0); w < streamWindows; w++ {
		start := app.Len() * w / streamWindows
		for i := start; i < min(start+streamWindow, app.Len()); i++ {
			ins := cur.At(i)
			out = append(out, ref{fetch: true, addr: ins.PC})
			if ins.IsMem {
				out = append(out, ref{addr: ins.Addr, write: ins.IsStore, value: ins.Value})
			}
		}
	}
	return out
}

// probeCore times the core layers on in.apps' streams.
func (b *bench) probeCore(in probeInputs) (coreNs, error) {
	c := coreNs{probe: map[string]float64{}}
	over := timerOverhead()

	// workload: Cursor.At over every app, whole.
	var instrs int64
	d := b.tr.timeSpan("workload.cursor", 0, 0, func() {
		for _, app := range in.apps {
			cur := workload.NewCursor(app)
			for i := int64(0); i < app.Len(); i++ {
				cur.At(i)
			}
			instrs += app.Len()
		}
	})
	c.cursor = float64(d) / float64(instrs)

	// capacitor: one Leak+Drain+Harvest per simulated step, fed by the trace.
	trace, err := powertrace.ByName("RFHome", in.seed)
	if err != nil {
		return c, err
	}
	st, err := capacitor.New(capacitor.Default())
	if err != nil {
		return c, err
	}
	const steps = 2_000_000
	dt := ehs.CyclePeriod
	drain := ehs.DefaultEnergy().PipelinePJ * 1e-12
	d = b.tr.timeSpan("capacitor.step", 0, 0, func() {
		for i := int64(0); i < steps; i++ {
			st.Leak(dt)
			st.Drain(drain)
			st.Harvest(trace.Power(i/2000) * dt)
		}
	})
	c.capStep = float64(d) / steps

	// cache, compress and nvm on each app's data reference stream. An
	// untimed pass records the misses and dirty victims; the cache is then
	// replayed from cold twice: once timed whole, once timing only its fills,
	// so an access costs the whole minus the fills, per access.
	var accesses, fills, writes int
	var wholeNs, fillNs, readNs, writeNs float64
	var blocks [][]byte
	for _, app := range in.apps {
		refs := streamRefs(app)
		cfg := cache.DefaultConfig("probe", compress.BDI{})
		data := map[uint32][]byte{}
		for _, r := range refs {
			base := r.addr &^ uint32(cfg.BlockSize-1)
			if data[base] == nil {
				data[base] = make([]byte, cfg.BlockSize)
				app.FillBlock(base, data[base])
				if len(blocks) < 8192 {
					blocks = append(blocks, data[base])
				}
			}
		}
		var misses []uint32
		var victims []cache.Victim
		replayStream(cfg, refs, data, -1, func(base uint32, fr cache.FillResult) {
			misses = append(misses, base)
			for _, v := range fr.Evicted {
				if v.Dirty {
					victims = append(victims, cache.Victim{Addr: v.Addr, Dirty: true, Data: append([]byte(nil), v.Data...)})
				}
			}
		})
		sp := b.tr.start("cache.stream", 0, 0)
		t0 := time.Now()
		replayStream(cfg, refs, data, -1, nil)
		wholeNs += float64(time.Since(t0))
		sp.end()
		fillNs += replayStream(cfg, refs, data, over, nil)
		accesses += len(refs)
		fills += len(misses)

		mem := nvm.New(nvm.DefaultConfig(), cfg.BlockSize, app.FillBlock)
		buf := make([]byte, cfg.BlockSize)
		readNs += float64(b.tr.timeSpan("nvm.read", 0, 0, func() {
			for _, a := range misses {
				mem.ReadBlock(a, buf)
			}
		}))
		writeNs += float64(b.tr.timeSpan("nvm.write", 0, 0, func() {
			for _, v := range victims {
				mem.WriteBlock(v.Addr, v.Data)
			}
		}))
		writes += len(victims)
	}
	c.fill = ratio(fillNs, float64(fills))
	c.access = ratio(wholeNs-fillNs, float64(accesses))
	c.read = ratio(readNs, float64(fills))
	c.write = ratio(writeNs, float64(writes))
	b.note("cache probe: %d accesses, %d fills, %d dirty writebacks over %d app stream(s)", accesses, fills, writes, len(in.apps))

	// compress: CompressedSize over the streams' distinct blocks.
	for _, codec := range compress.All() {
		const reps = 20
		d := b.tr.timeSpan("compress.probe."+codec.Name(), 0, 0, func() {
			for r := 0; r < reps; r++ {
				for _, blk := range blocks {
					codec.CompressedSize(blk)
				}
			}
		})
		c.probe[codec.Name()] = ratio(float64(d), float64(reps*len(blocks)))
	}

	// kagura: OnMemOpCommitted between power failures, as the simulator
	// calls it; failures and reboots are outside the timed batches.
	k := kagura.New(kagura.DefaultConfig())
	const perCycle, cycles = 5000, 400
	var kNs float64
	sp := b.tr.start("kagura.memop", 0, 0)
	for cyc := 0; cyc < cycles; cyc++ {
		t0 := time.Now()
		for i := 0; i < perCycle; i++ {
			k.OnMemOpCommitted(i%4 != 0)
		}
		kNs += float64(time.Since(t0))
		k.OnPowerFailure()
		k.OnReboot()
	}
	sp.end()
	c.memop = kNs / (perCycle * cycles)
	return c, nil
}

// replayStream runs refs through cold I- and D-caches the way the simulator
// does (MRU read fast path, then a full access, then a fill on a miss),
// filling each miss with its block's data. With timerOver ≥ 0 it times every
// Fill (minus the timer's own cost) and returns the sum; onFill, when set,
// sees each fill.
func replayStream(cfg cache.Config, refs []ref, data map[uint32][]byte, timerOver float64, onFill func(uint32, cache.FillResult)) float64 {
	ic, dc := cache.New(cfg), cache.New(cfg)
	var res cache.Result
	var fillNs float64
	word := make([]byte, 4)
	for i, r := range refs {
		c := dc
		if r.fetch {
			c = ic
		}
		now := int64(i)
		if !r.write {
			if _, ok := c.ReadHitMRU(r.addr, now); ok {
				continue
			}
		}
		var wdata []byte
		if r.write {
			word[0], word[1], word[2], word[3] = byte(r.value), byte(r.value>>8), byte(r.value>>16), byte(r.value>>24)
			wdata = word
		}
		if c.AccessInto(&res, r.addr, r.write, wdata, true, now); res.Hit {
			continue
		}
		base := r.addr &^ uint32(cfg.BlockSize-1)
		var fr cache.FillResult
		if timerOver >= 0 {
			t0 := time.Now()
			fr = c.Fill(base, data[base], r.write, true, false, now)
			fillNs += float64(time.Since(t0)) - timerOver
		} else {
			fr = c.Fill(base, data[base], r.write, true, false, now)
		}
		if onFill != nil {
			onFill(base, fr)
		}
	}
	return fillNs
}

// ehsProbe runs jpeg and patricia × base/ACC/ACC+Kagura directly.
type ehsProbe struct {
	results []*ehs.Result
	hostNs  []float64
	kagura  []bool
}

func (b *bench) probeEHS(in probeInputs) (*ehsProbe, error) {
	p := &ehsProbe{}
	trace, err := powertrace.ByName("RFHome", in.seed)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"jpeg", "patricia"} {
		app, err := workload.ByName(name, in.scale)
		if err != nil {
			return nil, err
		}
		base := ehs.Default(app, trace)
		for i, cfg := range []ehs.Config{base, base.WithACC(compress.BDI{}), base.WithACC(compress.BDI{}).WithKagura(kagura.DefaultConfig())} {
			var res *ehs.Result
			d := b.tr.timeSpan("ehs.run", 0, 0, func() { res, err = ehs.Run(cfg) })
			if err != nil {
				return nil, err
			}
			b.check(res.Completed, "ehs probe %s design %d did not complete", name, i)
			p.results = append(p.results, res)
			p.hostNs = append(p.hostNs, float64(d))
			p.kagura = append(p.kagura, i == 2)
		}
	}
	return p, nil
}

// childNs estimates the time a run spent inside the child layers: each
// layer's event count times its probed per-call cost.
func (c coreNs) childNs(r *ehs.Result, withKagura bool) float64 {
	acc := float64(r.ICache.Accesses + r.DCache.Accesses)
	fills := float64(r.ICache.Fills + r.DCache.Fills)
	misses := float64(r.ICache.Misses + r.DCache.Misses)
	wb := float64(r.ICache.DirtyEvictions + r.DCache.DirtyEvictions + r.CheckpointedBlocks)
	ns := float64(r.Executed)*(c.cursor+c.capStep) + acc*c.access + fills*c.fill +
		misses*c.read + wb*c.write + float64(r.Compressions)*c.probe["BDI"]
	if withKagura {
		ns += float64(r.DCache.Accesses) * c.memop
	}
	return ns
}

// probeSpec times the spec-preparation calls Submit makes, per spec.
func (b *bench) probeSpec(specs []simsvc.RunSpec) (norm, key, conf, ckey float64, err error) {
	for i, sp := range specs {
		req := int64(1000000 + i)
		root := b.tr.start("spec.prepare", 0, req)
		var n simsvc.RunSpec
		norm += ms(b.tr.timeSpan("simsvc.spec_normalize", root.id(), req, func() { n, err = sp.Normalize() }))
		if err != nil {
			return
		}
		key += ms(b.tr.timeSpan("simsvc.spec_key", root.id(), req, func() { _, err = n.Key() }))
		if err != nil {
			return
		}
		var cfg ehs.Config
		conf += ms(b.tr.timeSpan("simsvc.spec_config", root.id(), req, func() { cfg, err = n.Config() }))
		if err != nil {
			return
		}
		ckey += ms(b.tr.timeSpan("simsvc.config_key", root.id(), req, func() { simsvc.ConfigKey(cfg) }))
		root.end()
	}
	n := float64(len(specs))
	return norm / n, key / n, conf / n, ckey / n, nil
}

// probeService times a caller-side hit Submit and the same hit over
// loopback HTTP against Service.Run, on a private 2-worker service.
func (b *bench) probeService(specs []simsvc.RunSpec) (submitMs, httpMs, runMs, respBytes float64, err error) {
	svc := simsvc.New(simsvc.Options{Workers: 2})
	defer svc.Close()
	specs = specs[:min(2, len(specs))]
	for _, sp := range specs {
		if _, err = svc.Run(context.Background(), sp); err != nil {
			return
		}
	}
	const reps = 5
	for r := 0; r < reps; r++ {
		for _, sp := range specs {
			var job *simsvc.Job
			submitMs += ms(b.tr.timeSpan("simsvc.submit", 0, 0, func() { job, err = svc.Submit(sp) }))
			if err != nil {
				return
			}
			job.Wait(context.Background())
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return
	}
	srv := &http.Server{Handler: simsvc.NewHandler(svc)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	client := newClient()
	defer client.CloseIdleConnections()
	url := "http://" + ln.Addr().String()
	for r := 0; r < reps; r++ {
		for _, sp := range specs {
			t0 := time.Now()
			o := b.send(client, url, mustJSON(sp), 0) // records its own http.request span
			httpMs += ms(time.Since(t0))
			if o.err != nil || o.status != http.StatusOK {
				return 0, 0, 0, 0, fmt.Errorf("http probe: status %d, %v", o.status, o.err)
			}
			respBytes += float64(len(o.body))
			runMs += ms(b.tr.timeSpan("simsvc.run", 0, 0, func() { _, err = svc.Run(context.Background(), sp) }))
			if err != nil {
				return
			}
		}
	}
	n := float64(reps * len(specs))
	return submitMs / n, httpMs / n, runMs / n, respBytes / n, nil
}

// probeCkpt encodes and decodes the fork snapshot of base at cycle.
func (b *bench) probeCkpt(base ehs.Config, cycle int64) (enc, dec, size float64, err error) {
	sim, err := ehs.New(base)
	if err != nil {
		return
	}
	if _, err = sim.RunToCycle(context.Background(), cycle); err != nil {
		return
	}
	snap, err := sim.Snapshot()
	if err != nil {
		return
	}
	var encs, decs []float64
	var raw []byte
	for r := 0; r < 5; r++ {
		encs = append(encs, ms(b.tr.timeSpan("ckpt.encode", 0, 0, func() { raw, err = ckpt.Encode(snap) })))
		if err != nil {
			return
		}
		decs = append(decs, ms(b.tr.timeSpan("ckpt.decode", 0, 0, func() { _, err = ckpt.Decode(raw) })))
		if err != nil {
			return
		}
	}
	return median(encs), median(decs), float64(len(raw)), nil
}

// probeStore puts and gets encoded results in a fresh store, then reopens it.
func (b *bench) probeStore(results []*ehs.Result) (put, get, open float64, err error) {
	dir, err := os.MkdirTemp(b.dir, "store-probe-")
	if err != nil {
		return
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return
	}
	var payloads [][]byte
	for _, r := range results {
		p, err := ckpt.EncodeResult(r)
		if err != nil {
			return 0, 0, 0, err
		}
		payloads = append(payloads, p)
	}
	const copies = 10
	n := 0
	for c := 0; c < copies; c++ {
		for i, p := range payloads {
			k := fmt.Sprintf("probe-%d-%d", c, i)
			put += ms(b.tr.timeSpan("store.put", 0, 0, func() { err = st.Put(store.KindResult, k, p) }))
			if err != nil {
				return
			}
			n++
		}
	}
	for c := 0; c < copies; c++ {
		for i := range payloads {
			k := fmt.Sprintf("probe-%d-%d", c, i)
			var ok bool
			get += ms(b.tr.timeSpan("store.get", 0, 0, func() { _, ok = st.Get(store.KindResult, k) }))
			b.check(ok, "store probe: %s missing after put", k)
		}
	}
	open = ms(b.tr.timeSpan("store.open", 0, 0, func() { _, err = store.Open(store.Options{Dir: dir}) }))
	return put / float64(n), get / float64(n), open, err
}

// probeJournal appends job-submit records to a fresh journal and reopens it.
func (b *bench) probeJournal(specs []simsvc.RunSpec) (appendUs, open float64, err error) {
	dir, err := os.MkdirTemp(b.dir, "journal-probe-")
	if err != nil {
		return
	}
	jnl, err := journal.Open(dir)
	if err != nil {
		return
	}
	const n = 400
	for i := 0; i < n; i++ {
		rec := journal.Record{Type: journal.TypeJobSubmit, Key: fmt.Sprintf("probe-%d", i), Spec: mustJSON(specs[i%len(specs)])}
		appendUs += float64(b.tr.timeSpan("journal.append", 0, 0, func() { err = jnl.Append(rec) })) / 1e3
		if err != nil {
			jnl.Close()
			return
		}
	}
	if err = jnl.Close(); err != nil {
		return
	}
	var j2 *journal.Journal
	open = ms(b.tr.timeSpan("journal.open", 0, 0, func() { j2, err = journal.Open(dir) }))
	if err == nil {
		j2.Close()
	}
	return appendUs / n, open, err
}

// phaseMeans averages each scheduler phase over the jobs that had it.
func phaseMeans(jobs []simsvc.JobStatus) map[string]float64 {
	sum, cnt := map[string]float64{}, map[string]float64{}
	for _, js := range jobs {
		seen := map[string]bool{}
		for _, sp := range js.Trace {
			sum[sp.Phase] += sp.Seconds * 1000
			if !seen[sp.Phase] {
				cnt[sp.Phase]++
				seen[sp.Phase] = true
			}
		}
	}
	out := map[string]float64{}
	for p := range sum {
		out[p] = sum[p] / cnt[p]
	}
	return out
}

// passCounts are the layer counters of the workload pass itself.
type passCounts struct {
	results []*simsvc.RunResult // the pass's results in wire form
	met     simsvc.MetricsSnapshot
	jobs    []simsvc.JobStatus
	hitMs   float64 // the pass's hit latency, for the spec-share attribution
	// hitPrepMs is the config preparation inside one hit op; 0 means the
	// Submit path's Normalize+Key+Config.
	hitPrepMs float64
	wallS     float64 // untraced and traced pass walls
	traced    float64
}

// reportLayers runs every probe and reports all per-layer metrics. Metrics
// a workload does not exercise (campaign.* outside campaign, for example)
// are set by the workload before or after this call.
func (b *bench) reportLayers(in probeInputs, pc passCounts) error {
	var instrs, cycles, acc, hits, comps, rm, nvmOps int64
	for _, r := range pc.results {
		instrs += r.Executed
		cycles += r.PowerCycles
		acc += r.ICache.Accesses + r.DCache.Accesses
		hits += r.ICache.Hits + r.DCache.Hits
		comps += r.Compressions
		rm += r.KaguraRMEntries
		nvmOps += r.ICache.Misses + r.DCache.Misses + r.CheckpointedBlocks
	}
	b.setLayer("workload.instrs", float64(instrs), "count")
	b.setLayer("ehs.power_cycles", float64(cycles), "count")
	b.setLayer("cache.accesses", float64(acc), "count")
	b.setLayer("cache.hit_ratio", ratio(float64(hits), float64(acc)), "ratio")
	b.setLayer("compress.probes", float64(comps), "count")
	b.setLayer("kagura.rm_entries", float64(rm), "count")
	b.setLayer("nvm.ops", float64(nvmOps), "count")

	m := pc.met
	ph := phaseMeans(pc.jobs)
	b.setLayer("simsvc.queue_ms", ph[obs.PhaseQueued], "ms")
	b.setLayer("simsvc.compute_ms", ph[obs.PhaseCompute], "ms")
	b.setLayer("simsvc.store_phase_ms", ph[obs.PhaseStore], "ms")
	b.setLayer("simsvc.warmstart_ms", ph[obs.PhaseWarmStart], "ms")
	b.setLayer("simsvc.cache_hit_ratio", ratio(float64(m.JobsCached), float64(m.JobsRun+m.JobsCached)), "ratio")
	b.setLayer("simsvc.shed", float64(m.JobsShed), "count")
	b.setLayer("simsvc.warm_hit_ratio", ratio(float64(m.WarmStartHits), float64(m.WarmStartHits+m.WarmStartMisses)), "ratio")
	b.setLayer("store.result_hit_ratio", ratio(float64(m.Store.ResultHits), float64(m.Store.ResultHits+m.Store.ResultMisses)), "ratio")
	b.setLayer("store.publish_drops", float64(m.StorePublishDrops), "count")
	b.setLayer("journal.appends", float64(m.Journal.Appends), "count")
	b.setLayer("trace.overhead_s", pc.traced-pc.wallS, "s")

	core, err := b.probeCore(in)
	if err != nil {
		return err
	}
	b.setLayer("workload.cursor_ns_per_instr", core.cursor, "ns")
	b.setLayer("capacitor.step_ns", core.capStep, "ns")
	b.setLayer("cache.access_ns", core.access, "ns")
	b.setLayer("cache.fill_ns", core.fill, "ns")
	b.setLayer("nvm.read_ns", core.read, "ns")
	b.setLayer("nvm.write_ns", core.write, "ns")
	b.setLayer("kagura.memop_ns", core.memop, "ns")
	for name, ns := range core.probe {
		b.setLayer("compress.probe_ns."+name, ns, "ns")
	}

	ep, err := b.probeEHS(in)
	if err != nil {
		return err
	}
	var exec, host, self, beyond, ecomps float64
	for i, r := range ep.results {
		exec += float64(r.Executed)
		host += ep.hostNs[i]
		self += ep.hostNs[i] - core.childNs(r, ep.kagura[i])
		beyond += float64(r.ICache.HitsBeyondWays + r.DCache.HitsBeyondWays)
		ecomps += float64(r.ICache.Compressions + r.DCache.Compressions)
	}
	b.setLayer("ehs.instr_per_s", exec/(host/1e9), "1/s")
	b.setLayer("ehs.self_ms", self/float64(len(ep.results))/1e6, "ms")
	b.setLayer("cache.useful_compression_ratio", ratio(beyond, ecomps), "ratio")

	var synth []float64
	for _, name := range powertrace.Names() {
		for s := uint64(0); s < 3; s++ {
			synth = append(synth, ms(b.tr.timeSpan("powertrace.synth", 0, 0, func() { powertrace.ByName(name, in.seed+s) })))
		}
	}
	b.setLayer("powertrace.synth_ms", median(synth), "ms")

	norm, key, conf, ckey, err := b.probeSpec(in.specs)
	if err != nil {
		return err
	}
	b.setLayer("simsvc.spec_normalize_ms", norm, "ms")
	b.setLayer("simsvc.spec_key_ms", key, "ms")
	b.setLayer("simsvc.spec_config_ms", conf, "ms")
	b.setLayer("simsvc.config_key_ms", ckey, "ms")
	prep := pc.hitPrepMs
	if prep <= 0 {
		prep = norm + key + conf
	}
	b.setLayer("simsvc.hit_spec_share", ratio(prep, pc.hitMs), "ratio")

	submit, httpMs, runMs, respBytes, err := b.probeService(in.specs)
	if err != nil {
		return err
	}
	b.setLayer("simsvc.submit_ms", submit, "ms")
	b.setLayer("http.overhead_ms", httpMs-runMs, "ms")
	if _, ok := b.layers["http.resp_bytes"]; !ok {
		b.setLayer("http.resp_bytes", respBytes, "bytes")
	}

	forkBase, fork := in.forkBase, in.fork
	if forkBase == nil {
		app, err := workload.ByName("jpeg", in.scale)
		if err != nil {
			return err
		}
		trace, err := powertrace.ByName("RFHome", in.seed)
		if err != nil {
			return err
		}
		base := ehs.Default(app, trace).WithACC(compress.BDI{}).WithKagura(kagura.DefaultConfig())
		jpegKagura := ep.results[2] // probeEHS order: jpeg base, ACC, ACC+Kagura, …
		forkBase, fork = &base, int64(jpegKagura.ExecSeconds/ehs.CyclePeriod)/2
	}
	enc, dec, size, err := b.probeCkpt(*forkBase, fork)
	if err != nil {
		return err
	}
	b.setLayer("ckpt.encode_ms", enc, "ms")
	b.setLayer("ckpt.decode_ms", dec, "ms")
	b.setLayer("ckpt.snapshot_bytes", size, "bytes")

	put, get, open, err := b.probeStore(ep.results)
	if err != nil {
		return err
	}
	b.setLayer("store.put_ms", put, "ms")
	b.setLayer("store.get_ms", get, "ms")
	b.setLayer("store.open_ms", open, "ms")

	app, jopen, err := b.probeJournal(in.specs)
	if err != nil {
		return err
	}
	b.setLayer("journal.append_us", app, "us")
	b.setLayer("journal.open_ms", jopen, "ms")

	for _, name := range []string{"campaign.points", "campaign.rounds", "experiments.sims", "experiments.coalesced", "gen.lateness_p99_ms"} {
		if _, ok := b.layers[name]; !ok {
			b.setLayer(name, 0, unitOf(name))
		}
	}
	for _, name := range []string{"campaign.dispatch_ms", "experiments.render_ms"} {
		if _, ok := b.layers[name]; !ok {
			b.setLayer(name, 0, "ms")
		}
	}
	b.noteSelfTimes()
	return nil
}

func unitOf(name string) string {
	if strings.HasSuffix(name, "_ms") {
		return "ms"
	}
	return "count"
}

// noteSelfTimes prints the largest self times of the run's spans and counts
// the spans.
func (b *bench) noteSelfTimes() {
	lts := b.tr.selfTimes()
	for i, lt := range lts {
		if i == 20 {
			break
		}
		b.note("self time %-28s %10.2f ms over %d span(s) (total %.2f ms)", lt.Name, lt.SelfMs, lt.Count, lt.TotalMs)
	}
	var n int
	for _, lt := range lts {
		n += lt.Count
	}
	b.setLayer("trace.spans", float64(n), "count")
}

// runtimeDelta measures GC pauses and allocation across fn.
func (b *bench) runtimeDelta(fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := fn()
	runtime.ReadMemStats(&m1)
	b.setLayer("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	b.setLayer("runtime.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), "MB")
	return err
}

// untraced runs fn with span recording off.
func (b *bench) untraced(fn func() error) error {
	tr := b.tr
	b.tr = nil
	defer func() { b.tr = tr }()
	return fn()
}

// wireResults converts simulator results to the wire schema.
func wireResults(rs []*ehs.Result) []*simsvc.RunResult {
	out := make([]*simsvc.RunResult, 0, len(rs))
	for _, r := range rs {
		if r != nil {
			out = append(out, simsvc.NewRunResult(nil, "", false, r))
		}
	}
	return out
}

// jobResults collects the wire results of finished jobs.
func jobResults(jobs []simsvc.JobStatus) []*simsvc.RunResult {
	var out []*simsvc.RunResult
	for _, js := range jobs {
		if js.Result != nil {
			out = append(out, js.Result)
		}
	}
	return out
}
