package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"

	"kagura/internal/compress"
	"kagura/internal/ehs"
	"kagura/internal/experiments"
	"kagura/internal/kagura"
	"kagura/internal/powertrace"
	"kagura/internal/simsvc"
	"kagura/internal/workload"
)

// headlineDigests pins the fig13 CSV's SHA-256 per workload seed, recorded
// on amd64 from the CSV that `kagura-bench -experiments fig13 -format csv
// -seeds 3s+1,3s+2,3s+3` prints (its trailing timing line excluded). Seed 0
// is DefaultOptions(), the paper reproduction. arm64 fuses float
// multiply-adds and may differ (ROADMAP item 1). Seeds without a digest are
// checked for the same digest on every pass of the run.
var headlineDigests = map[uint64]string{
	0:  "da1cef772c6bc95174bba9b6d94b53f51213b6956b50f693f2e4e981867c281a",
	1:  "cedd4c44eca2ed4e13ebbd73e09f5f700cf9e8d78963880706e54993da307e17",
	2:  "4c91c9f1a28834365ed5bf02cb0ef40e3e3fc8f0867c8747410cc37050122f68",
	3:  "baaad7ad6b1561cd72da7b3b56fc2bef2dcfa9cd6ee8aad95e3995dfc0281dce",
	4:  "cf6d88f5b43a44cb93e44902d8dbdd7548d5da676c9504479c06a66707fecb4b",
	5:  "42154d62d380196b386448947f15cfbbb21ee29e3f8168ee0e60a73b7e144229",
	6:  "37bfa5bb1253483efa0657135aaf2ee0c945dcc887355d019999f7f6a52f1afc",
	7:  "9f4a8e497016196bf8a46d9f4f91016d3b54e3be799a254e908b96ca77e8830b",
	8:  "db04f04137a78d4cdd7f472a44e221df25602b6b49f95ce4d05f7aa8d6d11749",
	9:  "d7632ff4366fa6e10a866eeea3a98d537ca01ea71721b60a2c16b2950a7bc058",
	10: "aabdbff76bb6f2a9054077cf53dfe70184adf2501e1637958bf785bf795abd27",
}

// headlineOptions is DefaultOptions() with the trace seeds drawn from the
// workload seed s: {3s+1, 3s+2, 3s+3}.
func headlineOptions(seed uint64) experiments.Options {
	opts := experiments.Defaults()
	opts.Seeds = []uint64{3*seed + 1, 3*seed + 2, 3*seed + 3}
	return opts
}

// headlineSetup materializes the inputs (the 20-app suite and the three
// RFHome traces) and a fresh Lab on a 2-worker service.
func headlineSetup(opts experiments.Options) (*simsvc.Service, *experiments.Lab, error) {
	workload.Suite(opts.Scale)
	for _, s := range opts.Seeds {
		if _, err := powertrace.ByName("RFHome", s); err != nil {
			return nil, nil, err
		}
	}
	svc := simsvc.New(simsvc.Options{Workers: 2, QueueDepth: 16384})
	return svc, experiments.NewWithService(svc, opts), nil
}

// headlinePass is one cold fig13 run plus the re-serve pass.
type headlinePass struct {
	wall, rewall time.Duration
	cpu, recpu   time.Duration // process CPU time of the same two phases
	digest       string
	cold, hit    []float64 // per-simulation ms
	results      []*ehs.Result
	jobs         []simsvc.JobStatus
	met, labMet  simsvc.MetricsSnapshot // after the pass; after lab.Run
	renderMs     float64
}

// runHeadlinePass runs fig13 on a fresh Lab (cold), then re-requests every
// fig13 simulation from the warm service the way the Lab does (hit).
func (b *bench) runHeadlinePass(svc *simsvc.Service, lab *experiments.Lab, opts experiments.Options) (*headlinePass, error) {
	p := &headlinePass{}
	root := b.tr.start("experiments.run", 0, 0)
	t0, c0 := time.Now(), cpuNow()
	res, err := lab.Run("fig13")
	p.wall, p.cpu = time.Since(t0), cpuNow()-c0
	root.end()
	if err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	p.renderMs = ms(b.tr.timeSpan("experiments.render", 0, 0, func() { err = res.Render().WriteCSV(&csv) }))
	if err != nil {
		return nil, err
	}
	p.labMet = svc.Metrics()
	sum := sha256.Sum256(csv.Bytes())
	p.digest = hex.EncodeToString(sum[:])
	// In key order, so each block of a tail metric holds the same
	// simulations on every pass.
	jobs := svc.Jobs()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Key < jobs[j].Key })
	for _, js := range jobs {
		if !js.Cached {
			p.cold = append(p.cold, js.RunSeconds*1000)
		}
	}

	// Collect the cold run's garbage untimed, so the re-serve pass starts
	// from the same heap on every pass.
	runtime.GC()
	t0, c0 = time.Now(), cpuNow()
	p.hit, p.results, err = b.reserveFig13(svc, opts)
	p.rewall, p.recpu = time.Since(t0), cpuNow()-c0
	p.jobs = svc.Jobs()
	p.met = svc.Metrics()
	return p, err
}

// fig13Op is one simulation fig13 needs: app × trace seed × design.
type fig13Op struct {
	app    *workload.App
	seed   uint64
	design string // base, acc, kagura or ideal
}

// reserveFig13 re-requests all of fig13's simulations from svc, one at a
// time, each op doing what experiments.Lab does for one result (synthesize
// the trace, build the config, hash it, ask the service). One client keeps
// the second CPU for the collector, so an op's latency is its own work.
// Every op must be a cache hit on a completed result.
func (b *bench) reserveFig13(svc *simsvc.Service, opts experiments.Options) ([]float64, []*ehs.Result, error) {
	var ops []fig13Op
	for _, name := range workload.Names() {
		app, err := workload.ByName(name, opts.Scale)
		if err != nil {
			return nil, nil, err
		}
		for _, s := range opts.Seeds {
			for _, d := range []string{"base", "acc", "kagura", "ideal"} {
				ops = append(ops, fig13Op{app, s, d})
			}
		}
	}
	lat := make([]float64, len(ops))
	results := make([]*ehs.Result, len(ops))
	for i, op := range ops {
		t0 := time.Now()
		res, err := b.fig13Hit(svc, op, int64(i+1))
		lat[i] = ms(time.Since(t0))
		results[i] = res
		b.check(err == nil && res != nil && res.Completed,
			"headline re-serve %s/%s seed %d: %v", op.app.Name, op.design, op.seed, err)
	}
	return lat, results, nil
}

// errRecomputed marks a re-serve op that missed the cache.
var errRecomputed = fmt.Errorf("re-serve recomputed instead of hitting the cache")

func (b *bench) fig13Hit(svc *simsvc.Service, op fig13Op, req int64) (*ehs.Result, error) {
	root := b.tr.start("hit.op", 0, req)
	defer root.end()
	var trace *powertrace.Trace
	var err error
	b.tr.timeSpan("powertrace.synth", root.id(), req, func() { trace, err = powertrace.ByName("RFHome", op.seed) })
	if err != nil {
		return nil, err
	}
	var cfg ehs.Config
	b.tr.timeSpan("ehs.config", root.id(), req, func() {
		cfg = ehs.Default(op.app, trace)
		switch op.design {
		case "acc":
			cfg = cfg.WithACC(compress.BDI{})
		case "kagura", "ideal":
			cfg = cfg.WithACC(compress.BDI{}).WithKagura(kagura.DefaultConfig())
		}
	})
	var key string
	b.tr.timeSpan("simsvc.config_key", root.id(), req, func() { key = simsvc.ConfigKey(cfg) })
	if op.design == "ideal" {
		key = "ideal:" + key
	}
	var res *ehs.Result
	var cached bool
	b.tr.timeSpan("simsvc.do", root.id(), req, func() {
		res, cached, err = svc.Do(context.Background(), key, func(context.Context) (*ehs.Result, error) {
			return nil, errRecomputed
		})
	})
	if err == nil && !cached {
		err = errRecomputed
	}
	return res, err
}

// checkHeadline verifies a pass: the pinned digest where one is recorded,
// and the same digest on every pass of the run otherwise.
func (b *bench) checkHeadline(p *headlinePass, first string) {
	if want, ok := headlineDigests[b.seed]; ok {
		b.check(p.digest == want, "fig13 CSV digest %s, want %s", p.digest, want)
	} else {
		b.check(first == "" || p.digest == first, "fig13 CSV digest %s differs from the run's first pass %s", p.digest, first)
	}
}

// headlineSys is one fresh Lab and the service behind it.
type headlineSys struct {
	svc *simsvc.Service
	lab *experiments.Lab
}

// minHeadlinePasses is the fewest fig13 passes an untraced run makes. A
// re-serve pass costs about a tenth of a fig13 pass, so an untraced run
// follows each fig13 pass with reservePasses of them: more hit samples and
// restart passes, spread over the run.
const (
	minHeadlinePasses = 2
	reservePasses     = 2
)

// runHeadline is the untraced headline workload.
func runHeadline(b *bench) error {
	opts := headlineOptions(b.seed)
	setup := func() (headlineSys, error) {
		svc, lab, err := headlineSetup(opts)
		return headlineSys{svc, lab}, err
	}
	setupT, sys, err := repeatSetup(setup, func(s headlineSys) { s.svc.Close() })
	if err != nil {
		return err
	}
	var passes batchPasses
	var first string
	sims := 0
	start := time.Now()
	for {
		t0 := time.Now()
		p, err := b.runHeadlinePass(sys.svc, sys.lab, opts)
		if err != nil {
			sys.svc.Close()
			return err
		}
		passes.add(p.wall, p.cpu, p.cold)
		passes.addRestart(p.rewall, p.recpu, p.hit)
		for i := 1; i < reservePasses; i++ {
			runtime.GC()
			t0, c0 := time.Now(), cpuNow()
			hit, _, err := b.reserveFig13(sys.svc, opts)
			wall, cpu := time.Since(t0), cpuNow()-c0
			if err != nil {
				sys.svc.Close()
				return err
			}
			passes.addRestart(wall, cpu, hit)
		}
		sys.svc.Close()
		b.checkHeadline(p, first)
		if first == "" {
			first = p.digest
		}
		sims = len(p.cold)
		// At least two passes, so that cpu_s is a mean and not one pass's
		// luck; then more while another pass fits in the budget.
		if len(passes.cpus) >= minHeadlinePasses && time.Since(start)+time.Since(t0) > b.seconds {
			break
		}
		// Collect the last pass's garbage untimed, so each pass starts
		// from the heap a fresh process would have.
		runtime.GC()
		if sys, err = setup(); err != nil {
			return err
		}
	}
	b.batchE2E(setupT, &passes, sims)
	b.note("headline: %d fig13 pass(es), digest %s", len(passes.cpus), first)
	return nil
}
