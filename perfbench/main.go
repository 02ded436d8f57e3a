// Command perfbench is the repository's end-to-end benchmark. It drives
// the EnCore check and learn paths through their public entry points —
// the fleet coordinator, the serve daemon over real HTTP, and the
// Framework learn API — on inputs generated from a seed, verifies every
// output against a serial reference, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload fleet-privatecloud --seed 1 --seconds 30 --trace 0
//
// run.sh builds this module and runs it from the repository root.
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// a separate traced run carries the per-layer breakdown. Layers are timed
// from outside the program: wrapped fleet sources, check functions and
// sinks, client-side HTTP timing, the spans of the recorder the benchmark
// hands the daemon, and isolated replays of each workload's own inputs.
// Each workload's sizes and rates are constants beside its code.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Sizes of the set-up, the traced run and its checks, shared by every
// workload.
const (
	setupBudget  = 1.0  // seconds of repeated set-ups behind setup_s
	sumTolerance = 0.25 // largest residual share of the wrapped-layer sum checks
	replayImages = 900  // image files in each isolated layer replay
	replayServe  = 600  // requests in a serve replay of another workload's images
	probeEvery   = 2 * time.Millisecond
	traceImages  = 3000 // fleet images per traced configuration and round
	traceRounds  = 3    // interleaved rounds of traced fleet passes
)

// trainingSizes are the paper's training-set sizes per app.
var trainingSizes = map[string]int{"apache": 127, "mysql": 187, "php": 123}

// units fixes the unit of every metric the benchmark can print. The first
// block is the end-to-end set (-trace 0), the second the per-layer set
// (-trace 1); every workload prints all metrics of its mode.
var endToEnd = []string{
	"setup_s", "throughput_per_s", "latency_p50_ms", "latency_p99_ms",
	"allocs_per_op", "peak_heap_mb", "detect_recall",
}

var perLayer = []string{
	"sysimage.read_us", "sysimage.decode_us", "sysimage.decode_share",
	"assemble.stream_us", "detect.check_us", "detect.render_us",
	"detect.clean_flag_rate",
	"alert.publish_us", "alert.published", "alert.dropped", "alert.delivered_ratio",
	"fleet.worker_busy_ratio", "fleet.steals", "fleet.highwater_mb",
	"fleet.unattributed_us", "fleet.scaling_2v1",
	"serve.http_us", "serve.decode_us", "serve.check_us", "serve.handler_self_us", "serve.swap_ms",
	"serve.transport_us",
	"planio.decode_us", "planio.encode_us",
	"assemble.training_ms", "rules.infer_ms", "rules.candidates", "rules.kept_ratio", "detect.compile_ms",
	"telemetry.overhead_ratio", "runtime.gc_cpu_ratio",
	"trace.overhead_ratio", "trace.unattributed_us", "trace.residual_ratio",
	"gen.late_p99_ms",
}

var units = map[string]string{
	"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
	"allocs_per_op": "count", "peak_heap_mb": "MiB", "detect_recall": "ratio",

	"sysimage.read_us": "us", "sysimage.decode_us": "us", "sysimage.decode_share": "ratio",
	"assemble.stream_us": "us", "detect.check_us": "us", "detect.render_us": "us",
	"detect.clean_flag_rate": "ratio",
	"alert.publish_us":       "us", "alert.published": "count", "alert.dropped": "count",
	"alert.delivered_ratio":   "ratio",
	"fleet.worker_busy_ratio": "ratio", "fleet.steals": "count", "fleet.highwater_mb": "MiB",
	"fleet.unattributed_us": "us", "fleet.scaling_2v1": "ratio",
	"serve.http_us": "us", "serve.decode_us": "us", "serve.check_us": "us",
	"serve.handler_self_us": "us", "serve.swap_ms": "ms", "serve.transport_us": "us",
	"planio.decode_us": "us", "planio.encode_us": "us",
	"assemble.training_ms": "ms", "rules.infer_ms": "ms", "rules.candidates": "count",
	"rules.kept_ratio": "ratio", "detect.compile_ms": "ms",
	"telemetry.overhead_ratio": "ratio", "runtime.gc_cpu_ratio": "ratio",
	"trace.overhead_ratio": "ratio", "trace.unattributed_us": "us", "trace.residual_ratio": "ratio",
	"gen.late_p99_ms": "ms",
}

// apps is the paper's detection-evaluation application set.
var apps = []string{"apache", "mysql", "php"}

// bench is one run's shared state: flags, scratch directory, and the
// result being assembled.
type bench struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string

	pace *pacer

	mu        sync.Mutex
	attempted int64
	failed    int64
	metrics   map[string]float64
}

// ops records attempted operations and how many of them failed or could
// not be verified.
func (b *bench) ops(attempted, failed int64) {
	b.mu.Lock()
	b.attempted += attempted
	b.failed += failed
	b.mu.Unlock()
}

// failedIf counts one failed operation when bad holds.
func failedIf(bad bool) int64 {
	if bad {
		return 1
	}
	return 0
}

// set records one metric; only names listed in units are accepted.
func (b *bench) set(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("perfbench: unknown metric " + name)
	}
	b.metrics[name] = v
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "fleet-privatecloud | serve-faulty | learn")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Int("seconds", 10, "measurement duration in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, trace bool) error {
	b := &bench{seed: seed, seconds: time.Duration(seconds) * time.Second, trace: trace,
		pace: newPacer(), metrics: map[string]float64{}}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	var err error
	b.dir, err = os.MkdirTemp(".bench_build", "data-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(b.dir)

	switch workload {
	case "fleet-privatecloud":
		err = runFleet(b)
	case "serve-faulty":
		err = runServe(b)
	case "learn":
		err = runLearn(b)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: machine ran at %.3f of the reference pace over %d bursts\n",
		1/b.pace.slowdownSince(0), b.pace.mark())

	want := endToEnd
	if trace {
		want = perLayer
	}
	out := resultOut{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricOut{}}
	for _, name := range want {
		v, ok := b.metrics[name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", workload, name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s measured %s = %v", workload, name, v)
		}
		out.Metrics[name] = metricOut{Value: v, Unit: units[name]}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("workload %s attempted nothing", workload)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// ---- statistics ----

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windows groups samples by their time stamp (seconds) into consecutive
// windows of width seconds, dropping the trailing partial window.
func windows(at, vals []float64, width float64) [][]float64 {
	end := 0.0
	for _, t := range at {
		end = max(end, t)
	}
	n := int(end / width)
	out := make([][]float64, n)
	for i, t := range at {
		if w := int(t / width); w < n {
			out[w] = append(out[w], vals[i])
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// repeatSetup runs fn at least 5 and at most 101 times, until
// setupBudget seconds have passed, each run after a reference burst and
// timed at that burst's pace, and returns the median; the last run's state
// is what the caller keeps. A cheap set-up gets many samples, so its
// median is as steady as an expensive one's.
func (b *bench) repeatSetup(fn func() error) (float64, error) {
	var times []float64
	for start := time.Now(); len(times) < 5 || (len(times) < 101 && time.Since(start).Seconds() < setupBudget); {
		slow := b.pace.burst()
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t).Seconds()/slow)
	}
	return median(times), nil
}

// ---- runtime probes ----

// mallocs reads the process-wide cumulative heap allocation count.
func mallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuSplit reads cumulative GC and total CPU seconds.
func cpuSplit() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// gcWindow measures the GC share of CPU time between its creation and
// ratio(). The runtime refreshes these counters at each GC, so a window
// forces one at both ends.
type gcWindow struct{ gc0, tot0 float64 }

func newGCWindow() gcWindow {
	runtime.GC()
	g, t := cpuSplit()
	return gcWindow{g, t}
}

func (w gcWindow) ratio() float64 {
	runtime.GC()
	g, t := cpuSplit()
	if t <= w.tot0 {
		return 0
	}
	return (g - w.gc0) / (t - w.tot0)
}

// heapSampler samples the live heap every 5ms while it runs.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	start   time.Time
	at, mib []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), start: time.Now()}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.at = append(h.at, time.Since(h.start).Seconds())
			h.mib = append(h.mib, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMiB stops the sampler and returns the median across one-second
// windows of each window's peak: the heap's sawtooth top, steady against
// where one GC cycle happens to land.
func (h *heapSampler) peakMiB() float64 {
	close(h.stop)
	<-h.done
	var peaks []float64
	for _, w := range windows(h.at, h.mib, 1) {
		if len(w) > 0 {
			sort.Float64s(w)
			peaks = append(peaks, w[len(w)-1])
		}
	}
	if len(peaks) == 0 {
		return h.mib[len(h.mib)-1]
	}
	return median(peaks)
}

// lateProbe is a timer that sleeps every interval and records how late
// each wake-up came, measured from its own sleep so lateness never
// accumulates across ticks: the scheduler-health twin of the serve
// workload's open-loop generator, reported as gen.late_p99_ms by the
// workloads that have no generator.
type lateProbe struct {
	stop chan struct{}
	done chan struct{}
	late []float64 // ms
}

func startLateProbe(every time.Duration) *lateProbe {
	p := &lateProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		timer := time.NewTimer(every)
		defer timer.Stop()
		for {
			due := time.Now().Add(every)
			timer.Reset(every)
			select {
			case <-p.stop:
				return
			case <-timer.C:
			}
			p.late = append(p.late, ms(time.Since(due)))
		}
	}()
	return p
}

// p99 stops the probe and returns its 99th-percentile lateness.
func (p *lateProbe) p99() float64 {
	close(p.stop)
	<-p.done
	if len(p.late) == 0 {
		return 0
	}
	return quantile(p.late, 0.99)
}

// The open-loop stall guard. The phase is cut into stallWindow windows; a
// window in which the generator released some request more than stallLate
// after its due time is stalled. Latency is timed from due times, so a
// stalled window's latencies carry the generator's own lateness: the host
// preempting the process, or a runtime stall hitting the generator and the
// daemon alike. A run with more than maxStalled of its windows stalled
// counts as failed. In quiet runs on a 2-vCPU machine the generator's
// latest release per window had a median of about 1.5 ms, and 0-3 of
// 20-30 windows passed 10 ms.
const (
	stallWindow = 0.5  // seconds
	stallLate   = 10.0 // ms
	maxStalled  = 0.2
)

// stallGuard judges one open-loop phase from the generator's lateness
// (late, ms) at each request's due time (lateAt, seconds since the phase
// started).
func (b *bench) stallGuard(lateAt, late []float64) {
	end := 0.0
	for _, t := range lateAt {
		end = max(end, t)
	}
	n := int(end/stallWindow) + 1
	stalled := make([]bool, n)
	for i, l := range late {
		if l > stallLate {
			stalled[int(lateAt[i]/stallWindow)] = true
		}
	}
	count := 0
	for _, s := range stalled {
		if s {
			count++
		}
	}
	if count > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: open-loop generator stalled in %d of %d windows\n", count, n)
	}
	b.ops(1, failedIf(float64(count)/float64(n) > maxStalled))
}

// writeFile writes data to dir/name, creating dir as needed, and returns
// the path.
func writeFile(dir, name string, data []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, data, 0o644)
}
