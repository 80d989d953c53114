// Command perfbench is the repository benchmark: three workloads that drive
// the Kagura simulator and its service end to end (headline, campaign,
// serve), an untraced mode that reports end-to-end metrics, and a traced mode
// that times calls into each layer's public functions and reports per-layer
// metrics. See README.md for every metric's definition.
//
//	perfbench --workload headline --seed 0 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one invocation's settings and accumulates its results.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	tr       *tracer // nil when untraced: every span call is then a no-op
	dir      string  // scratch directory inside the checkout, removed at exit

	e2e    map[string]metric
	layers map[string]metric
	notes  []string

	attempted, failed int64
}

// check counts one verified operation and records a failure with its reason.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func (b *bench) setE2E(name string, v float64, unit string)   { b.e2e[name] = metric{v, unit} }
func (b *bench) setLayer(name string, v float64, unit string) { b.layers[name] = metric{v, unit} }
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its untraced and traced runners.
var workloads = map[string]struct {
	run   func(*bench) error
	layer func(*bench) error
}{
	"headline": {runHeadline, traceHeadline},
	"campaign": {runCampaign, traceCampaign},
	"serve":    {runServe, traceServe},
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: headline, campaign or serve")
		seed    = flag.Uint64("seed", 0, "workload seed (0 is the default seed)")
		seconds = flag.Int("seconds", 30, "measurement budget in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*wl]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload headline|campaign|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// The service runs two workers and the load generator shares the host:
	// never schedule more OS threads than there are CPUs.
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	b := &bench{
		workload: *wl,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		e2e:      map[string]metric{},
		layers:   map[string]metric{},
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err == nil {
		b.dir, err = filepath.Abs(dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	code := b.execute(w.run, w.layer)
	os.RemoveAll(b.dir)
	os.Exit(code)
}

// execute runs the workload in the requested mode and prints the report.
func (b *bench) execute(run, layer func(*bench) error) int {
	var err error
	if b.traced {
		b.tr = newTracer()
		err = layer(b)
	} else {
		err = run(b)
		b.setE2E("peak_rss_mb", peakRSSMB(), "MB")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was checked")
		return 1
	}
	metrics := b.e2e
	if b.traced {
		metrics = b.layers
		if path, err := b.tr.writeFile(b.workload, b.seed); err == nil {
			b.note("spans written to %s", path)
		} else {
			b.note("spans not written: %v", err)
		}
	}
	b.note("fail_ratio %.6g (%d of %d operations failed or returned a wrong result)",
		float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	for _, n := range b.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14s %s\n", n, strconv.FormatFloat(metrics[n].Value, 'g', 8, 64), metrics[n].Unit)
	}
	out, err := json.Marshal(report{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// Each workload sets itself up at least minSetupReps times per run, and
// more while the set-ups so far took under minSetupTime in total (at most
// maxSetupReps); the median is setup_s.
const (
	minSetupReps = 5
	maxSetupReps = 2001
	minSetupTime = 2 * time.Second
)

// setupTimes are the medians of a repeated set-up's wall and process CPU
// seconds.
type setupTimes struct{ wall, cpu float64 }

// repeatSetup runs setup repeatedly, tearing down all but the last system,
// and returns the set-up times with the last system. The heap is collected,
// untimed, before each set-up, so each starts from the same heap and a
// collection left over from earlier work does not land in one of them.
func repeatSetup[T any](setup func() (T, error), teardown func(T)) (setupTimes, T, error) {
	var walls, cpus []float64
	var sys T
	var total time.Duration
	for i := 0; i < minSetupReps || (total < minSetupTime && i < maxSetupReps); i++ {
		if i > 0 {
			teardown(sys)
		}
		runtime.GC()
		t0, c0 := time.Now(), cpuNow()
		var err error
		if sys, err = setup(); err != nil {
			return setupTimes{}, sys, err
		}
		d := time.Since(t0)
		cpus = append(cpus, sec(cpuNow()-c0))
		total += d
		walls = append(walls, sec(d))
	}
	return setupTimes{median(walls), median(cpus)}, sys, nil
}

// batchPasses are a batch workload's per-pass measurements: its main
// passes and the restart (or re-serve) passes that follow them, each as wall
// and process CPU seconds, and per-operation latencies grouped by pass.
type batchPasses struct {
	walls, rewalls, cpus, recpus []float64
	cold, hit                    [][]float64
}

func (p *batchPasses) add(wall, cpu time.Duration, cold []float64) {
	p.walls = append(p.walls, sec(wall))
	p.cpus = append(p.cpus, sec(cpu))
	p.cold = append(p.cold, cold)
}

func (p *batchPasses) addRestart(wall, cpu time.Duration, hit []float64) {
	p.rewalls = append(p.rewalls, sec(wall))
	p.recpus = append(p.recpus, sec(cpu))
	p.hit = append(p.hit, hit)
}

// batchE2E reports a batch workload's end-to-end metrics from all of its
// passes, each pass doing opsPerPass operations: the mean CPU seconds of a
// main and of a restart pass, the same per operation in ms (cold_ms and
// hit_ms), and operations settled per CPU-second of the main pass. The
// host's memory system is shared: a neighbour's load slows stretches of a
// run, some of them twofold, so a run's figures are means over all of its
// stretches rather than medians or minima, which jump between the fast and
// the slow stretches. CPU time, unlike wall time, also leaves out time the
// host gave to other guests, and the time an operation waits for a CPU
// behind the pool's other worker. The walls and the per-operation wall
// latencies go to the notes.
func (b *bench) batchE2E(setup setupTimes, p *batchPasses, opsPerPass int) {
	ops := float64(opsPerPass)
	b.setupE2E(setup)
	b.setE2E("cpu_s", mean(p.cpus), "s")
	b.setE2E("restart_cpu_s", mean(p.recpus), "s")
	b.setE2E("cold_ms", 1000*mean(p.cpus)/ops, "ms")
	b.setE2E("hit_ms", 1000*mean(p.recpus)/ops, "ms")
	b.setE2E("max_ok_rps", ops/mean(p.cpus), "1/s")
	b.latencies(p.cold, p.hit)
	b.note("pass cpu %.3f s, restart cpu %.3f s", p.cpus, p.recpus)
	b.note("wall_s %.4f s, restart_wall_s %.4f s: means of pass walls %.3f s, restart walls %.3f s",
		mean(p.walls), mean(p.rewalls), p.walls, p.rewalls)
}

// setupE2E reports setup_s, the median CPU time of a set-up, and notes the
// median wall time.
func (b *bench) setupE2E(setup setupTimes) {
	b.setE2E("setup_s", setup.cpu, "s")
	b.note("setup: median cpu %.6f s, median wall %.6f s", setup.cpu, setup.wall)
}

// latencies summarizes the cold and hit wall-clock latency samples, given in
// groups (the passes of a batch workload, or serve's middle step), and
// returns their trimmed means. The notes give each class's trimmed mean, p50
// and tail. For the tail each group is cut into blocks of at least
// tailBlock samples in order, and the tail is the median over blocks of
// each block's tail.
func (b *bench) latencies(cold, hit [][]float64) (coldMs, hitMs float64) {
	var out [2]float64
	for i, c := range []struct {
		name   string
		groups [][]float64
	}{{"cold", cold}, {"hit", hit}} {
		var all, tails, pcts []float64
		var sizes []int
		for _, g := range c.groups {
			all = append(all, g...)
			if len(g) == 0 {
				continue
			}
			for _, blk := range blocks(g, tailBlock) {
				v, p := tail(blk)
				tails, pcts, sizes = append(tails, v), append(pcts, p), append(sizes, len(blk))
			}
		}
		out[i] = trimmedMean(all)
		b.note("%s latency over %d samples: trimmed mean %.4f ms; %s_p50_ms %.4f ms; %s_tail_ms %.4f ms = median over %d block(s) of p%v of %v samples each",
			c.name, len(all), out[i], c.name, median(all), c.name, median(tails), len(tails), pcts, sizes)
	}
	return out[0], out[1]
}
