package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"kagura/internal/ehs"
	"kagura/internal/journal"
	"kagura/internal/rng"
	"kagura/internal/simsvc"
)

// The serve workload's fixed open-loop ladder. Rates are requests per second;
// weights split the run's seconds between steps (the nominal middle rate
// gets the most samples). On 2-vCPU hosts the service answers this mix at
// 35–95 req/s at most, as the hosts' speed differs and drifts: the 24 req/s
// step stays well below that and passes, and the top step, a burst of about
// 200 requests that two connections take seconds to drain, stays far above
// it and fails, so max_ok_rps does not flip between runs. The middle rate
// keeps the two workers under a quarter busy on a slow host, so its
// latencies show service time rather than queueing.
var (
	ladderRates   = []float64{4, 8, 12, 18, 24, 600}
	ladderWeights = []float64{1, 1, 14, 2, 3, 0.25}
)

const (
	middleStep = 2 // index of the nominal middle rate in ladderRates
	// latencyLimitMs bounds a step's tail latency for max_ok_rps: about
	// twenty times a request's service time, so a host stall of a few
	// hundred milliseconds does not fail a step the service sustains.
	latencyLimitMs = 1000
	// serveScale is the workload length of every serve request.
	serveScale = 0.05
)

// maxConns caps the generator's keep-alive connections: two, one per
// service worker, and never more than the host has CPUs.
var maxConns = min(2, runtime.NumCPU())

// request is one scheduled request.
type request struct {
	due  time.Duration // offset from the schedule start
	step int
	hit  bool
	spec simsvc.RunSpec
	body []byte // spec as JSON, rendered with the schedule
}

// serveSchedule lays out the ladder for a run of the given length. Within
// each block of three requests one is cold (a never-seen trace seed,
// alternating jpeg and patricia) and two are hits that repeat an earlier cold
// spec; the seed picks the cold slot and which spec each hit repeats. Each
// request's body is rendered here, so the generator only sends.
func serveSchedule(seed uint64, seconds time.Duration) []request {
	r := rng.New(seed*2654435761 + 1)
	var total float64
	for _, w := range ladderWeights {
		total += w
	}
	var out []request
	var colds []request
	var t time.Duration
	coldSlot := 0
	for step, rate := range ladderRates {
		d := time.Duration(float64(seconds) * ladderWeights[step] / total)
		gap := time.Duration(float64(time.Second) / rate)
		for end := t + d; t < end; t += gap {
			i := len(out)
			if i%3 == 0 {
				coldSlot = r.Intn(3)
			}
			req := request{due: t, step: step}
			if i%3 == coldSlot || len(colds) == 0 {
				app := "jpeg"
				if len(colds)%2 == 1 {
					app = "patricia"
				}
				req.spec = simsvc.RunSpec{
					App: app, Scale: serveScale, Trace: "RFHome",
					Seed: (seed+1)<<20 + uint64(len(colds)) + 1, Codec: "BDI", ACC: true, Kagura: true,
				}
				colds = append(colds, req)
			} else {
				// Repeat a cold spec due at least half a second ago when
				// there is one, so most hits find a settled result.
				n := len(colds)
				for n > 1 && t-colds[n-1].due < 500*time.Millisecond {
					n--
				}
				req.hit = true
				req.spec = colds[r.Intn(n)].spec
			}
			req.body = mustJSON(req.spec)
			out = append(out, req)
		}
	}
	return out
}

// server is the service under test behind a loopback HTTP listener.
type server struct {
	dir  string
	jnl  *journal.Journal
	svc  *simsvc.Service
	srv  *http.Server
	url  string
	done chan struct{}
}

// startServer brings the service up over dir with its store and journal on
// and returns once /readyz answers 200.
func (b *bench) startServer(dir string, client *http.Client) (*server, error) {
	jnl, err := journal.Open(filepath.Join(dir, "journal"))
	if err != nil {
		return nil, err
	}
	svc := simsvc.New(simsvc.Options{Workers: 2, StoreDir: dir, Journal: jnl})
	if err := svc.StoreErr(); err != nil {
		svc.Close()
		jnl.Close()
		return nil, err
	}
	replayed := svc.StartJournalReplay()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		jnl.Close()
		return nil, err
	}
	s := &server{dir: dir, jnl: jnl, svc: svc, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	// Timeouts as kagura-serve's defaults. The idle timeout outlives the
	// client's, so the server never closes a keep-alive connection the
	// client may be about to reuse for a POST.
	s.srv = &http.Server{
		Handler:           b.spanHandler(simsvc.NewHandler(svc)),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	// Readiness waits on the journal replay. Wait for the replay first, so
	// that the first probe normally answers 200: a poll racing the replay
	// would add a timing-dependent number of probes to the set-up's cost.
	deadline := time.Now().Add(30 * time.Second)
	select {
	case <-replayed:
	case <-time.After(time.Until(deadline)):
	}
	for ; time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		resp, err := client.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
	}
	return nil, errors.Join(fmt.Errorf("serve: /readyz not 200 within 30s"), s.stop())
}

// stop shuts the listener, the service (flushing the store) and the journal
// down, in that order, and waits for the serving goroutine.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	s.svc.Close()
	return errors.Join(err, s.jnl.Close())
}

// stopServer stops s and counts a failed shutdown as a failed operation.
func (b *bench) stopServer(s *server) {
	err := s.stop()
	b.check(err == nil, "serve: shutdown: %v", err)
}

// Span context travels to the handler in these headers.
const (
	hdrSpan = "X-Perfbench-Span"
	hdrReq  = "X-Perfbench-Req"
)

// spanHandler records a server-side span per request when tracing.
func (b *bench) spanHandler(h http.Handler) http.Handler {
	if b.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Requests without the headers (the readiness probe) become roots.
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		sp := b.tr.start("http.handler", parent, req)
		h.ServeHTTP(w, r)
		sp.end()
	})
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// outcome is one request's measured result.
type outcome struct {
	latency time.Duration // from due time to response complete
	late    time.Duration // how late the generator sent it
	status  int
	body    []byte
	err     error
}

// ladderRun is one pass of the schedule.
type ladderRun struct {
	out        []outcome
	wall       time.Duration
	cpu        time.Duration // process CPU time over the same span as wall
	backlog    [][2]int      // outstanding requests at each step's start and end
	jobsMet    simsvc.MetricsSnapshot
	jobs       []simsvc.JobStatus
	queueDepth [][2]int // service queue depth at each step's start and end
}

// runLadder sends the schedule open-loop: each request is released at its
// due time whatever is still outstanding, over at most maxConns connections.
func (b *bench) runLadder(s *server, client *http.Client, sched []request) *ladderRun {
	run := &ladderRun{
		out:        make([]outcome, len(sched)),
		backlog:    make([][2]int, len(ladderRates)),
		queueDepth: make([][2]int, len(ladderRates)),
	}
	var outstanding sync.WaitGroup
	var mu sync.Mutex
	inflight := 0
	sample := func() (int, int) {
		mu.Lock()
		defer mu.Unlock()
		return inflight, s.svc.Metrics().QueueDepth
	}
	start, cpu0 := time.Now(), cpuNow()
	step := -1
	for i, req := range sched {
		if req.step != step {
			if step >= 0 {
				run.backlog[step][1], run.queueDepth[step][1] = sample()
			}
			step = req.step
			run.backlog[step][0], run.queueDepth[step][0] = sample()
		}
		if d := req.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(start) - req.due
		body := req.body
		mu.Lock()
		inflight++
		mu.Unlock()
		outstanding.Add(1)
		go func(i int, req request) {
			defer outstanding.Done()
			o := b.send(client, s.url, body, int64(i+1))
			o.late = late
			o.latency = time.Since(start) - req.due
			run.out[i] = o
			mu.Lock()
			inflight--
			mu.Unlock()
		}(i, req)
	}
	run.backlog[step][1], run.queueDepth[step][1] = sample()
	outstanding.Wait()
	run.wall, run.cpu = time.Since(start), cpuNow()-cpu0
	run.jobsMet = s.svc.Metrics()
	run.jobs = s.svc.Jobs()
	return run
}

// send POSTs one run synchronously and reads the whole response.
func (b *bench) send(client *http.Client, url string, body []byte, req int64) outcome {
	sp := b.tr.start("http.request", 0, req)
	defer sp.end()
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	if b.tr != nil {
		hreq.Header.Set(hdrSpan, strconv.FormatInt(sp.id(), 10))
		hreq.Header.Set(hdrReq, strconv.FormatInt(req, 10))
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return outcome{status: resp.StatusCode, body: raw, err: err}
}

// stepStats summarizes one ladder step.
type stepStats struct {
	rate     float64 // offered
	served   float64 // answered per second, first due to last answer
	n, bad   int     // requests, and requests refused or failed
	tailMs   float64
	tailPct  float64
	growing  bool
	passes   bool
	coldMs   []float64
	hitMs    []float64
	lateMs   []float64
	backlog  [2]int
	queueDep [2]int
}

// summarize splits a ladder run into steps and judges each against the
// latency limit: a refused (503) or failed request counts as missing it, and
// a backlog that grows across the step fails the step.
func summarize(sched []request, run *ladderRun) []stepStats {
	steps := make([]stepStats, len(ladderRates))
	all := make([][]float64, len(ladderRates))
	first := make([]time.Duration, len(ladderRates))
	last := make([]time.Duration, len(ladderRates))
	for i, req := range sched {
		st := &steps[req.step]
		o := run.out[i]
		lat := ms(o.latency)
		if st.n == 0 {
			first[req.step] = req.due
		}
		last[req.step] = max(last[req.step], req.due+o.latency)
		st.n++
		st.lateMs = append(st.lateMs, ms(o.late))
		if o.err != nil || o.status != http.StatusOK {
			st.bad++
			lat = 1e9 // misses any limit
		}
		all[req.step] = append(all[req.step], lat)
		if req.hit {
			st.hitMs = append(st.hitMs, lat)
		} else {
			st.coldMs = append(st.coldMs, lat)
		}
	}
	for i := range steps {
		st := &steps[i]
		st.rate = ladderRates[i]
		if st.n == 0 {
			continue
		}
		st.served = float64(st.n-st.bad) / (last[i] - first[i]).Seconds()
		st.tailMs, st.tailPct = tail(all[i])
		st.backlog, st.queueDep = run.backlog[i], run.queueDepth[i]
		// Growing: more outstanding at the end than at the start, by more
		// than the connections can hold plus a tenth of the step's requests.
		st.growing = st.backlog[1]-st.backlog[0] > maxConns+st.n/10
		st.passes = st.bad == 0 && !st.growing && st.tailMs <= latencyLimitMs
	}
	return steps
}

// maxOK is the measured answer rate of the highest ladder step that passes
// (0 when none does): the offered rate, as the service sustained it.
func maxOK(steps []stepStats) float64 {
	best := -1
	for i, st := range steps {
		if st.passes && (best < 0 || st.rate > steps[best].rate) {
			best = i
		}
	}
	if best < 0 {
		return 0
	}
	return steps[best].served
}

// verifyServe checks every 200 response against a direct simulation of the
// same spec, two specs at a time, and every other response as a failure.
func (b *bench) verifyServe(sched []request, run *ladderRun) {
	type want struct {
		spec simsvc.RunSpec
		raw  []byte
		err  error
	}
	expected := map[string]*want{}
	var todo []*want
	for i, req := range sched {
		if run.out[i].status == http.StatusOK {
			k := string(req.body)
			if expected[k] == nil {
				expected[k] = &want{spec: req.spec}
				todo = append(todo, expected[k])
			}
		}
	}
	var wg sync.WaitGroup
	next := make(chan *want)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := range next {
				w.raw, w.err = directRun(w.spec)
			}
		}()
	}
	for _, w := range todo {
		next <- w
	}
	close(next)
	wg.Wait()
	for i, req := range sched {
		o := run.out[i]
		if o.err != nil || o.status != http.StatusOK {
			b.check(false, "serve request %d: status %d, %v", i, o.status, o.err)
			continue
		}
		w := expected[string(req.body)]
		got, err := canonicalResponse(o.body)
		b.check(err == nil && w.err == nil && bytes.Equal(got, w.raw),
			"serve request %d (%s seed %d): response differs from a direct run (%v, %v)", i, req.spec.App, req.spec.Seed, err, w.err)
	}
}

// directRun simulates spec without the service and renders the wire result.
func directRun(spec simsvc.RunSpec) ([]byte, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	key, err := norm.Key()
	if err != nil {
		return nil, err
	}
	cfg, err := norm.Config()
	if err != nil {
		return nil, err
	}
	res, err := ehs.Run(cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(simsvc.NewRunResult(&norm, key, false, res))
}

// canonicalResponse re-renders a response with the serving provenance
// (cached flag) cleared, so it compares equal to a direct run.
func canonicalResponse(body []byte) ([]byte, error) {
	var rr simsvc.RunResult
	if err := json.Unmarshal(body, &rr); err != nil {
		return nil, err
	}
	rr.Cached = false
	return json.Marshal(&rr)
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return raw
}

// serveResult is one complete serve pass.
type serveResult struct {
	sched []request
	run   *ladderRun
	steps []stepStats
}

// servePass runs the ladder against s and verifies every response.
func (b *bench) servePass(s *server, client *http.Client, sched []request) *serveResult {
	run := b.runLadder(s, client, sched)
	b.verifyServe(sched, run)
	return &serveResult{sched: sched, run: run, steps: summarize(sched, run)}
}

// Each serve run ends with restartRounds restart passes. A pass brings a
// fresh journal and service up over the ladder's directory, waits for
// /readyz, and re-requests restartSpecs settled specs one at a time, each
// of which the store must answer. The pass's cost is mostly spec
// preparation, as on campaign's restart pass; a bare restart is a few
// milliseconds of file-system calls, whose cost moves with the host's
// other I/O. After the timed pass the same service gets coldProbes cold
// requests (never-seen trace seeds, alternating jpeg and patricia), one at
// a time. With one request in flight, the CPU time of the hits and of the
// cold requests, per request, is what a hit and a cold request cost.
const (
	restartRounds = 3
	restartSpecs  = 24
	coldProbes    = 12
)

// restartStats are the restart passes' measurements.
type restartStats struct {
	walls, cpus []float64 // per pass: restart plus the settled re-requests
	hitCPU      []float64 // per pass: CPU seconds per re-requested spec
	coldCPU     []float64 // per pass: CPU seconds per cold probe
}

// coldProbeSpec is cold probe j of restart pass r: a trace seed the ladder
// never uses.
func (b *bench) coldProbeSpec(r, j int) simsvc.RunSpec {
	app := "jpeg"
	if j%2 == 1 {
		app = "patricia"
	}
	return simsvc.RunSpec{
		App: app, Scale: serveScale, Trace: "RFHome",
		Seed: (b.seed+1)<<20 + 1<<19 + uint64(r*coldProbes+j) + 1, Codec: "BDI", ACC: true, Kagura: true,
	}
}

// restartPasses stops s and makes the restart passes over its directory,
// each server stopped, untimed, before the next. Every answer must equal a
// direct run, and every settled spec must be a store hit.
func (b *bench) restartPasses(s *server, client *http.Client, sched []request) (*restartStats, error) {
	dir := s.dir
	b.stopServer(s)
	var specs []simsvc.RunSpec
	var want [][]byte
	for _, req := range sched {
		if !req.hit && len(specs) < restartSpecs {
			w, err := directRun(req.spec)
			if err != nil {
				return nil, err
			}
			specs, want = append(specs, req.spec), append(want, w)
		}
	}
	check := func(r int, what string, spec simsvc.RunSpec, o outcome, want []byte) {
		got, err := canonicalResponse(o.body)
		b.check(o.err == nil && o.status == http.StatusOK && err == nil && bytes.Equal(got, want),
			"serve restart pass %d, %s %s seed %d: status %d, %v, %v; response differs from a direct run", r, what, spec.App, spec.Seed, o.status, o.err, err)
	}
	st := &restartStats{}
	for r := 0; r < restartRounds; r++ {
		probes := make([]simsvc.RunSpec, coldProbes)
		probeWant := make([][]byte, coldProbes)
		for j := range probes {
			probes[j] = b.coldProbeSpec(r, j)
			w, err := directRun(probes[j])
			if err != nil {
				return nil, err
			}
			probeWant[j] = w
		}
		runtime.GC()
		t0, c0 := time.Now(), cpuNow()
		s, err := b.startServer(dir, client)
		if err != nil {
			return nil, err
		}
		c1 := cpuNow()
		outs := make([]outcome, len(specs))
		for i, spec := range specs {
			outs[i] = b.send(client, s.url, mustJSON(spec), 0)
		}
		c2 := cpuNow()
		st.walls, st.cpus = append(st.walls, sec(time.Since(t0))), append(st.cpus, sec(c2-c0))
		hits := s.svc.Metrics().Store.ResultHits
		probeOuts := make([]outcome, coldProbes)
		for j, spec := range probes {
			probeOuts[j] = b.send(client, s.url, mustJSON(spec), 0)
		}
		c3 := cpuNow()
		st.hitCPU = append(st.hitCPU, sec(c2-c1)/float64(len(specs)))
		st.coldCPU = append(st.coldCPU, sec(c3-c2)/coldProbes)
		b.stopServer(s)
		for i, o := range outs {
			check(r, "settled", specs[i], o, want[i])
		}
		b.check(hits == int64(len(specs)), "serve restart pass %d: %d store hits for %d settled specs", r, hits, len(specs))
		for j, o := range probeOuts {
			check(r, "cold probe", probes[j], o, probeWant[j])
		}
	}
	return st, nil
}

// serveSetup generates the schedule and brings a server up over an empty
// directory.
func (b *bench) serveSetup(client *http.Client) (*server, []request, error) {
	sched := serveSchedule(b.seed, b.seconds)
	dir, err := os.MkdirTemp(b.dir, "serve-")
	if err != nil {
		return nil, nil, err
	}
	s, err := b.startServer(dir, client)
	return s, sched, err
}

type serveSys struct {
	s     *server
	sched []request
}

// runServe is the untraced serve workload.
func runServe(b *bench) error {
	client := newClient()
	defer client.CloseIdleConnections()
	setupT, sys, err := repeatSetup(func() (serveSys, error) {
		s, sched, err := b.serveSetup(client)
		return serveSys{s, sched}, err
	}, func(sys serveSys) { b.stopServer(sys.s); os.RemoveAll(sys.s.dir) })
	if err != nil {
		return err
	}
	res := b.servePass(sys.s, client, sys.sched)
	rs, err := b.restartPasses(sys.s, client, res.sched)
	if err != nil {
		return err
	}

	mid := res.steps[middleStep]
	b.setupE2E(setupT)
	b.setE2E("cpu_s", sec(res.run.cpu), "s")
	b.setE2E("restart_cpu_s", mean(rs.cpus), "s")
	b.setE2E("cold_ms", 1000*mean(rs.coldCPU), "ms")
	b.setE2E("hit_ms", 1000*mean(rs.hitCPU), "ms")
	b.setE2E("max_ok_rps", maxOK(res.steps), "1/s")
	b.latencies([][]float64{mid.coldMs}, [][]float64{mid.hitMs})
	b.note("wall_s %.3f s (the ladder), restart_wall_s %.4f s (mean of restart passes %.3f s, cpu %.3f s)",
		sec(res.run.wall), mean(rs.walls), rs.walls, rs.cpus)
	b.note("cpu per request one at a time: settled re-request %.2f ms, cold probe %.2f ms",
		scaled(rs.hitCPU, 1000), scaled(rs.coldCPU, 1000))
	b.noteSteps(res.steps)
	return nil
}

// noteSteps prints the per-step ladder table.
func (b *bench) noteSteps(steps []stepStats) {
	for _, st := range steps {
		b.note("serve step %4.0f req/s (answered %.2f/s): n=%d bad=%d p%g=%.1f ms (limit %d) backlog %d→%d queue %d→%d lateness p99 %.2f ms pass=%v",
			st.rate, st.served, st.n, st.bad, st.tailPct, st.tailMs, latencyLimitMs, st.backlog[0], st.backlog[1],
			st.queueDep[0], st.queueDep[1], quantile(st.lateMs, 0.99), st.passes)
	}
}
