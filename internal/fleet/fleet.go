// Package fleet is the batch scan engine: every scan of more than one
// image — `encore scan` at any shard count, the daemon's batch endpoint —
// runs through its Coordinator, from a corpus-sized directory up to a
// 100k+-image fleet at constant memory. Each image runs scan.Step, so
// every image is its own fault domain, panics included.
//
// The coordinator splits the fleet's canonical input order into S
// contiguous shards, each with one atomic claim cursor. Every index is
// known before the run starts (Source.Len, random-access Load), so a run
// starts only its workers: a worker claims the next index of its home
// shard with one atomic add until the shard is exhausted, then claims
// from each other shard in turn (a steal), so a skewed fleet (one shard
// holding nearly everything) still finishes at full parallelism instead
// of idling S-1 worker groups. One sweep over the shards is enough,
// because a cursor only grows: a shard found exhausted stays exhausted.
//
// Memory is governed twice over. Structurally, only the source's name
// list and the cursors are resident — images stream through the pooled
// decode buffers and die young. Explicitly, a global budget meters the
// estimated bytes of every in-flight image payload: workers reserve
// before loading and release after checking, and the reservation
// high-water mark is exported as a gauge so the runtime sampler's heap
// trace can be read against it. Peak RSS stays flat as the fleet grows
// 10×.
//
// Determinism: every task index is claimed exactly once and delivered
// to the sink with its index; aggregating by index reproduces a serial
// scan's output byte for byte, regardless of shard count, worker count,
// or steal schedule. The per-image work itself (load + Plan.Check) is
// deterministic, so only ordering needs recovering.
package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alert"
	"repro/internal/scan"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// DefaultMemoryBudget caps estimated in-flight image payload bytes.
const DefaultMemoryBudget = 256 << 20

// Exported fleet metric families (labeled-family names render verbatim
// on /metrics and in telemetry snapshots).
const (
	MetricImages         = "encore_fleet_images_total"
	MetricErrors         = "encore_fleet_errors_total"
	MetricSteals         = "encore_fleet_steals_total"
	MetricBatches        = "encore_fleet_batches_total"
	MetricShards         = "encore_fleet_shards"
	MetricInflightBytes  = "encore_fleet_inflight_bytes"
	MetricHighWaterBytes = "encore_fleet_inflight_highwater_bytes"
)

// Options configures a Coordinator.
type Options struct {
	// Check produces the report for one image. Required.
	Check scan.CheckFunc
	// Strict makes the first failing image fail the batch: no further
	// task is claimed, the tasks already claimed finish, Run returns the
	// lowest-index ScanError among them, and Collect returns no result.
	// With one shard the claimed tasks are a prefix of the input order,
	// so that is the first failing image in input order. When false,
	// each failure is delivered to the sink as that image's outcome and
	// the batch goes on.
	Strict bool
	// Shards is the number of contiguous slices of the input order, each
	// with its own claim cursor and worker group; 0 picks min(NumCPU, 4)
	// and is always clamped to the fleet size.
	Shards int
	// Workers is the total worker count across all shards; 0 means
	// NumCPU, and the count is raised to at least one per shard.
	Workers int
	// MemoryBudget caps the estimated bytes of in-flight image payloads
	// (0 = DefaultMemoryBudget). A single oversized image is admitted
	// alone rather than deadlocking.
	MemoryBudget int64
	// Telemetry receives counters, the per-image scan histogram, the
	// scan.batch and scan.worker spans, and the encore_fleet_* families.
	// Nil disables all of it.
	// The coordinator deliberately records no per-image spans: a span
	// per image would grow the recorder linearly with fleet size.
	Telemetry *telemetry.Recorder
	// Log receives per-image failure records at warn level. Nil silences.
	Log *slog.Logger
	// Progress, when set, is stepped once per finished image.
	Progress *telemetry.Progress
	// Alerts, when set, receives every warning, severity-classified, with
	// per-image provenance. Publishing never blocks the scan path.
	Alerts *alert.Pipeline
	// RequestID correlates the batch's alerts ("scan-..." generated when
	// empty and Alerts is set).
	RequestID string
	// App, when set, is the application label stamped on alerts (the serve
	// daemon's registry app); empty derives it per warning attribute via
	// scan.AlertApp, the CLI convention.
	App string
	// PlanVersion is the knowledge provenance stamped on alerts.
	PlanVersion string
}

// Stats summarizes one coordinator run.
type Stats struct {
	// Images counts every task claimed: healthy, failed, or dropped by a
	// cancellation while it waited for budget.
	Images int64
	// Errors counts tasks that produced a ScanError.
	Errors int64
	// Findings counts warnings across healthy images.
	Findings int64
	// Steals counts tasks claimed from a foreign shard.
	Steals int64
	// HighWaterBytes is the peak of the memory budget's in-flight
	// reservation over the run.
	HighWaterBytes int64
	// Shards and Workers are the resolved topology.
	Shards, Workers int
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
}

// Sink receives every completed task. Workers call it concurrently; idx
// is the task's global input index, delivered exactly once per index.
// The sink must not retain it.Report's image (there is none to retain —
// items carry reports, not images).
type Sink func(idx int, it scan.Item)

// Coordinator runs sharded fleet scans. The zero value is unusable; fill
// Options and call Run. A Coordinator is stateless across runs and safe
// to reuse serially; concurrent Runs on one Coordinator are safe too
// (each run carries its own state).
type Coordinator struct {
	Opts Options
}

// shard is one contiguous slice of the input order. Workers claim its
// indices in order with one atomic add on next, which starts at lo and
// only grows; a claim at or past hi finds the shard exhausted.
type shard struct {
	next   atomic.Int64
	lo, hi int64
}

// claim takes the shard's next unclaimed index.
func (s *shard) claim() (int, bool) {
	i := s.next.Add(1) - 1
	return int(i), i < s.hi
}

// claimed is the number of indices taken from the shard so far.
func (s *shard) claimed() int64 { return min(s.next.Load(), s.hi) - s.lo }

// run is the per-Run state shared by the workers.
type run struct {
	opts   Options
	src    Source
	sink   Sink
	shards []shard
	// stopped ends claiming (ctx canceled, or a Strict failure);
	// canceled (ctx only) also drops claimed tasks waiting for budget.
	stopped, canceled atomic.Bool

	// budget meters estimated in-flight image payload bytes.
	budgetMu   sync.Mutex
	budgetCond *sync.Cond
	budgetCap  int64
	inflight   int64
	highWater  int64

	steals   atomic.Int64
	errors   atomic.Int64
	findings atomic.Int64
	step     scan.Step
	m        runMetrics

	// failMu guards the lowest-index failure of a Strict run.
	failMu  sync.Mutex
	failIdx int
	failErr *scan.ScanError
}

// runMetrics are a run's per-image series, resolved once by Run so a
// worker updates them without the recorder lock.
type runMetrics struct {
	scanned, findings, scanErrors telemetry.Counter // pipeline counters
	images, errors                telemetry.Counter // encore_fleet_*_total
	inflight                      telemetry.Gauge
}

// Run scans every task of src across the configured shards and delivers
// each outcome to sink. It blocks until the fleet is drained (or ctx is
// canceled, in which case it stops promptly, joins every goroutine, and
// returns ctx's error; a Strict run stops claiming on its first failure,
// finishes the tasks already claimed and returns the lowest-index
// failure). Misuse (nil Check/src/sink) errors immediately.
func (c *Coordinator) Run(ctx context.Context, src Source, sink Sink) (Stats, error) {
	if c.Opts.Check == nil {
		return Stats{}, fmt.Errorf("fleet: coordinator has no Check function")
	}
	if src == nil || sink == nil {
		return Stats{}, fmt.Errorf("fleet: Run needs a source and a sink")
	}
	n := src.Len()
	shards, workers := c.topology(n)
	budget := c.Opts.MemoryBudget
	if budget <= 0 {
		budget = DefaultMemoryBudget
	}

	r := &run{opts: c.Opts, src: src, sink: sink, budgetCap: budget, shards: make([]shard, shards)}
	r.budgetCond = sync.NewCond(&r.budgetMu)
	for s := range r.shards {
		lo, hi := shardRange(n, shards, s)
		sh := &r.shards[s]
		sh.lo, sh.hi = int64(lo), int64(hi)
		sh.next.Store(sh.lo)
	}
	r.step.Check = c.Opts.Check
	if c.Opts.Alerts != nil {
		reqID := c.Opts.RequestID
		if reqID == "" {
			reqID = "scan-" + strconv.FormatInt(time.Now().UnixNano(), 36)
		}
		r.step.Alerting = &scan.Alerting{
			Pipeline: c.Opts.Alerts, App: c.Opts.App, RequestID: reqID, PlanVersion: c.Opts.PlanVersion,
		}
	}

	rec := c.Opts.Telemetry
	r.m = runMetrics{
		scanned:    rec.CounterOf(telemetry.CounterImagesScanned),
		findings:   rec.CounterOf(telemetry.CounterFindingsEmitted),
		scanErrors: rec.CounterOf(telemetry.CounterScanErrors),
		images:     rec.LabeledCounterOf(MetricImages, ""),
		errors:     rec.LabeledCounterOf(MetricErrors, ""),
		inflight:   rec.GaugeOf(MetricInflightBytes, ""),
	}
	defer rec.StartStage(telemetry.StageScanBatch)()
	root := rec.StartSpan("scan.batch",
		telemetry.A("images", strconv.Itoa(n)),
		telemetry.A("shards", strconv.Itoa(shards)),
		telemetry.A("workers", strconv.Itoa(workers)))
	defer root.End()
	rec.SetGauge(MetricShards, "", float64(shards))
	rec.AddLabeled(MetricBatches, "", 1)

	start := time.Now()
	// Cancellation flips the canceled flag and wakes budget waiters;
	// stop detaches it when the run drains on its own.
	stop := context.AfterFunc(ctx, r.cancel)
	// Workers are dealt round-robin so every shard gets at least one and
	// the remainder spreads evenly.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.worker(root, w, w%shards)
		}(w)
	}
	wg.Wait()
	stop()

	var claimed int64
	for s := range r.shards {
		claimed += r.shards[s].claimed()
	}
	stats := Stats{
		Images:         claimed,
		Errors:         r.errors.Load(),
		Findings:       r.findings.Load(),
		Steals:         r.steals.Load(),
		HighWaterBytes: r.highWater,
		Shards:         shards,
		Workers:        workers,
		Elapsed:        time.Since(start),
	}
	rec.AddLabeled(MetricSteals, "", stats.Steals)
	rec.SetGauge(MetricHighWaterBytes, "", float64(stats.HighWaterBytes))
	r.m.inflight.Set(0)
	if r.failErr != nil {
		return stats, r.failErr
	}
	if r.canceled.Load() {
		return stats, ctx.Err()
	}
	return stats, nil
}

// Collect runs the coordinator over src and gathers every item into a
// Result in canonical input order, for fleets small enough to retain
// whole. Fleet-scale consumers should pass Run a streaming sink instead.
func (c *Coordinator) Collect(ctx context.Context, src Source) (*scan.Result, Stats, error) {
	items := make([]scan.Item, src.Len())
	stats, err := c.Run(ctx, src, func(idx int, it scan.Item) {
		items[idx] = it // exactly-once per index: distinct elements, no lock
	})
	if err != nil {
		return nil, stats, err
	}
	return &scan.Result{Items: items}, stats, nil
}

// topology resolves shard and worker counts for a fleet of n tasks.
func (c *Coordinator) topology(n int) (shards, workers int) {
	shards = c.Opts.Shards
	if shards <= 0 {
		shards = runtime.NumCPU()
		if shards > 4 {
			shards = 4
		}
	}
	if n > 0 && shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	workers = c.Opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers < shards {
		workers = shards
	}
	if n > 0 && workers > n {
		workers = n
		if shards > workers {
			shards = workers
		}
	}
	return shards, workers
}

// shardRange is shard s's contiguous [lo, hi) slice of the fleet.
func shardRange(n, shards, s int) (lo, hi int) {
	base, rem := n/shards, n%shards
	lo = s*base + min(s, rem)
	hi = lo + base
	if s < rem {
		hi++
	}
	return lo, hi
}

// fail records a Strict run's failure at idx, keeping the lowest index
// seen, and stops claiming. Tasks already claimed still run, so a lower
// index claimed before idx can still fail and take its place.
func (r *run) fail(idx int, e *scan.ScanError) {
	r.failMu.Lock()
	if r.failErr == nil || idx < r.failIdx {
		r.failIdx, r.failErr = idx, e
	}
	r.failMu.Unlock()
	r.stopped.Store(true)
}

// cancel stops further claims, drops claimed tasks that wait for budget
// and wakes those waiters.
func (r *run) cancel() {
	r.canceled.Store(true)
	r.stopped.Store(true)
	r.budgetMu.Lock()
	r.budgetCond.Broadcast()
	r.budgetMu.Unlock()
}

// acquire reserves size budget bytes, blocking while the fleet is over
// budget. Oversized single images are admitted alone (the reservation
// clamps to the budget) rather than deadlocking. Returns false on cancel.
func (r *run) acquire(size int64) bool {
	if size <= 0 {
		return !r.canceled.Load()
	}
	if size > r.budgetCap {
		size = r.budgetCap
	}
	r.budgetMu.Lock()
	for r.inflight+size > r.budgetCap && !r.canceled.Load() {
		r.budgetCond.Wait()
	}
	if r.canceled.Load() {
		r.budgetMu.Unlock()
		return false
	}
	r.inflight += size
	if r.inflight > r.highWater {
		r.highWater = r.inflight
	}
	cur := r.inflight
	r.budgetMu.Unlock()
	r.m.inflight.Set(float64(cur))
	return true
}

// release returns a reservation.
func (r *run) release(size int64) {
	if size <= 0 {
		return
	}
	if size > r.budgetCap {
		size = r.budgetCap
	}
	r.budgetMu.Lock()
	r.inflight -= size
	r.budgetMu.Unlock()
	r.budgetCond.Signal()
}

// worker claims its home shard's indices in order until the shard is
// exhausted, then claims from each other shard in turn; every claim off
// its home shard is a steal. A cursor only grows, so one sweep drains
// the fleet.
func (r *run) worker(root *telemetry.Span, id, home int) {
	ws := root.StartChild("scan.worker",
		telemetry.A("worker", strconv.Itoa(id)),
		telemetry.A("shard", strconv.Itoa(home)))
	defer ws.End()
	var hist telemetry.Histogram
	defer r.opts.Telemetry.MergeHistogram(telemetry.HistImageScan, &hist)

	for off := range r.shards {
		sh := &r.shards[(home+off)%len(r.shards)]
		for !r.stopped.Load() {
			idx, ok := sh.claim()
			if !ok {
				break
			}
			if off > 0 {
				r.steals.Add(1)
			}
			r.process(idx, &hist)
		}
	}
}

// process loads one task, runs the per-image step on it, and delivers
// the outcome with its counter, progress and log side effects.
func (r *run) process(idx int, hist *telemetry.Histogram) {
	size := r.src.Size(idx)
	if !r.acquire(size) {
		// Canceled while waiting for budget: the task was already
		// claimed, so it is dropped, exactly like tasks never claimed.
		// Run reports the cancellation.
		return
	}
	defer r.release(size)

	start := time.Now()
	var it scan.Item
	if img, err := r.load(idx); err != nil {
		it = scan.Item{Err: &scan.ScanError{Err: err}}
		hist.Observe(time.Since(start))
	} else {
		var elapsed time.Duration
		it, elapsed = r.step.Run(img, start, nil)
		hist.Observe(elapsed)
	}

	r.m.scanned.Add(1)
	r.m.images.Add(1)
	if it.Err == nil {
		warnings := len(it.Report.Warnings)
		r.findings.Add(int64(warnings))
		r.m.findings.Add(int64(warnings))
		r.opts.Progress.Step(warnings)
	} else {
		it.Err.Path = r.src.Name(idx)
		r.errors.Add(1)
		r.m.scanErrors.Add(1)
		r.m.errors.Add(1)
		r.opts.Progress.Step(0)
		if r.opts.Log != nil {
			r.opts.Log.Warn("image scan failed",
				"image", it.Err.ImageID, "path", it.Err.Path, "err", it.Err.Err)
		}
		if r.opts.Strict {
			r.fail(idx, it.Err)
		}
	}
	r.sink(idx, it)
}

// load decodes one task's image. A panicking decoder becomes that image's
// error, as a panicking check does inside scan.Step: nothing above a
// worker goroutine recovers, so the panic would end the process.
func (r *run) load(idx int) (img *sysimage.Image, err error) {
	defer func() {
		if p := recover(); p != nil {
			img, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return r.src.Load(idx)
}
