// Package fleet is the batch scan engine: every scan of more than one
// image — `encore scan` at any shard count, the daemon's batch endpoint —
// runs through its Coordinator, from a corpus-sized directory up to a
// 100k+-image fleet at constant memory. Each image runs scan.Step, so
// every image is its own fault domain, panics included.
//
// The coordinator splits the fleet's canonical input order into S
// contiguous shards; one shard is a plain worker pool over one queue.
// Each shard owns a bounded deque fed by its own discovery goroutine
// (backpressure: discovery blocks when its workers lag) and a group of
// workers popping the deque front. A worker whose shard is exhausted
// turns thief: it steals single tasks from its neighbors' deque tails, so
// a skewed fleet (one shard holding nearly everything) still finishes at
// full parallelism instead of idling S-1 worker groups.
//
// Memory is governed twice over. Structurally, only the name list and the
// bounded deques are resident — images stream through the pooled decode
// buffers and die young. Explicitly, a global budget meters the estimated
// bytes of every in-flight image payload: workers reserve before loading
// and release after checking, and the reservation high-water mark is
// exported as a gauge so the runtime sampler's heap trace can be read
// against it. Peak RSS stays flat as the fleet grows 10×.
//
// Determinism: every task index is processed exactly once and delivered
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
	"repro/internal/telemetry"
)

// Defaults for the coordinator's tuning knobs.
const (
	// DefaultQueueDepth bounds each shard's deque. Deep enough that
	// discovery (a name-list walk) never starves workers, shallow enough
	// that queued indices stay a rounding error at any fleet size.
	DefaultQueueDepth = 64
	// DefaultMemoryBudget caps estimated in-flight image payload bytes.
	DefaultMemoryBudget = 256 << 20
)

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
	// Strict makes the first failing image fail the batch: the run is
	// canceled, Run returns the lowest-index ScanError it saw, and Collect
	// returns no result. When false, each failure is delivered to the
	// sink as that image's outcome and the batch goes on.
	Strict bool
	// Shards is the number of discovery/worker groups; 0 picks
	// min(NumCPU, 4) and is always clamped to the fleet size.
	Shards int
	// Workers is the total worker count across all shards; 0 means
	// NumCPU, and the count is raised to at least one per shard.
	Workers int
	// QueueDepth bounds each shard's deque (0 = DefaultQueueDepth).
	QueueDepth int
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
	// Images counts every task processed (healthy or failed).
	Images int64
	// Errors counts tasks that produced a ScanError.
	Errors int64
	// Findings counts warnings across healthy images.
	Findings int64
	// Steals counts tasks taken from a foreign shard's deque.
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

// deque is one shard's bounded work queue. The discovery goroutine
// pushes at the back (blocking when full — that bound is the constant-
// memory contract for queued work); shard-local workers pop at the
// front (FIFO preserves input locality); thieves steal from the back.
type deque struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	buf      []int
	head     int
	count    int
	done     bool // discovery finished
}

func newDeque(capacity int) *deque {
	d := &deque{buf: make([]int, capacity)}
	d.notEmpty.L = &d.mu
	d.notFull.L = &d.mu
	return d
}

// run is the per-Run state shared by discovery, workers, and thieves.
type run struct {
	opts   Options
	src    Source
	sink   Sink
	shards []*deque

	remaining atomic.Int64 // tasks not yet taken by any worker
	canceled  atomic.Bool

	// stealMu/stealCond/stealGen implement missed-wakeup-free waiting
	// for thieves: every push, discovery completion, cancellation, and
	// final take bumps the generation and broadcasts.
	stealMu   sync.Mutex
	stealCond *sync.Cond
	stealGen  uint64

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

	// failMu guards the lowest-index failure of a Strict run.
	failMu  sync.Mutex
	failIdx int
	failErr *scan.ScanError
}

// Run scans every task of src across the configured shards and delivers
// each outcome to sink. It blocks until the fleet is drained (or ctx is
// canceled, in which case it stops promptly, joins every goroutine, and
// returns ctx's error; a Strict run stops the same way on its first
// failure and returns it). Misuse (nil Check/src/sink) errors immediately.
func (c *Coordinator) Run(ctx context.Context, src Source, sink Sink) (Stats, error) {
	if c.Opts.Check == nil {
		return Stats{}, fmt.Errorf("fleet: coordinator has no Check function")
	}
	if src == nil || sink == nil {
		return Stats{}, fmt.Errorf("fleet: Run needs a source and a sink")
	}
	n := src.Len()
	shards, workers := c.topology(n)
	depth := c.Opts.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	budget := c.Opts.MemoryBudget
	if budget <= 0 {
		budget = DefaultMemoryBudget
	}

	r := &run{opts: c.Opts, src: src, sink: sink, budgetCap: budget}
	r.stealCond = sync.NewCond(&r.stealMu)
	r.budgetCond = sync.NewCond(&r.budgetMu)
	r.remaining.Store(int64(n))
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
	defer rec.StartStage(telemetry.StageScanBatch)()
	root := rec.StartSpan("scan.batch",
		telemetry.A("images", strconv.Itoa(n)),
		telemetry.A("shards", strconv.Itoa(shards)),
		telemetry.A("workers", strconv.Itoa(workers)))
	defer root.End()
	rec.SetGauge(MetricShards, "", float64(shards))
	rec.AddLabeled(MetricBatches, "", 1)

	start := time.Now()
	r.shards = make([]*deque, shards)
	for i := range r.shards {
		r.shards[i] = newDeque(depth)
	}

	// Cancellation watcher: flips the canceled flag and wakes every
	// blocked discovery, worker, thief, and budget waiter. watchDone
	// stops it when the run drains on its own.
	watchDone := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		select {
		case <-ctx.Done():
			r.cancel()
		case <-watchDone:
		}
	}()

	var wg sync.WaitGroup
	// One discovery goroutine per shard: walks the shard's contiguous
	// index range, pushing into the bounded deque.
	for s := 0; s < shards; s++ {
		lo, hi := shardRange(n, shards, s)
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			d := r.shards[s]
			for i := lo; i < hi; i++ {
				if !d.push(r, i) {
					break // canceled
				}
			}
			d.markDone(r)
		}(s, lo, hi)
	}
	// Worker groups: workers are dealt round-robin so every shard gets
	// at least one and the remainder spreads evenly.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.worker(root, w, w%shards)
		}(w)
	}
	wg.Wait()
	close(watchDone)
	watch.Wait()

	stats := Stats{
		Images:         int64(n) - r.remaining.Load(),
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
	rec.SetGauge(MetricInflightBytes, "", 0)
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
// seen, and cancels the run so no further task starts.
func (r *run) fail(idx int, e *scan.ScanError) {
	r.failMu.Lock()
	if r.failErr == nil || idx < r.failIdx {
		r.failIdx, r.failErr = idx, e
	}
	r.failMu.Unlock()
	r.cancel()
}

// cancel wakes everything that could be blocked.
func (r *run) cancel() {
	r.canceled.Store(true)
	for _, d := range r.shards {
		d.mu.Lock()
		d.notEmpty.Broadcast()
		d.notFull.Broadcast()
		d.mu.Unlock()
	}
	r.budgetMu.Lock()
	r.budgetCond.Broadcast()
	r.budgetMu.Unlock()
	r.bump()
}

// bump advances the steal generation and wakes waiting thieves.
func (r *run) bump() {
	r.stealMu.Lock()
	r.stealGen++
	r.stealMu.Unlock()
	r.stealCond.Broadcast()
}

// gen reads the current steal generation.
func (r *run) gen() uint64 {
	r.stealMu.Lock()
	g := r.stealGen
	r.stealMu.Unlock()
	return g
}

// waitSteal blocks until the steal generation moves past gen, the fleet
// drains, or the run is canceled.
func (r *run) waitSteal(gen uint64) {
	r.stealMu.Lock()
	for gen == r.stealGen && r.remaining.Load() > 0 && !r.canceled.Load() {
		r.stealCond.Wait()
	}
	r.stealMu.Unlock()
}

// push appends a task at the deque's back, blocking while full. Returns
// false when the run was canceled instead.
func (d *deque) push(r *run, idx int) bool {
	d.mu.Lock()
	for d.count == len(d.buf) && !r.canceled.Load() {
		d.notFull.Wait()
	}
	if r.canceled.Load() {
		d.mu.Unlock()
		return false
	}
	d.buf[(d.head+d.count)%len(d.buf)] = idx
	d.count++
	d.notEmpty.Signal()
	d.mu.Unlock()
	r.bump() // new stealable work
	return true
}

// markDone records discovery completion and wakes shard workers that were
// waiting for more local work.
func (d *deque) markDone(r *run) {
	d.mu.Lock()
	d.done = true
	d.notEmpty.Broadcast()
	d.mu.Unlock()
	r.bump()
}

// popFront takes the oldest local task. ok=false with open=true means
// "retry" (spurious wake), ok=false with open=false means the shard is
// exhausted: discovery is done and the deque is empty.
func (d *deque) popFront(r *run) (idx int, ok, open bool) {
	d.mu.Lock()
	for d.count == 0 && !d.done && !r.canceled.Load() {
		d.notEmpty.Wait()
	}
	if r.canceled.Load() || d.count == 0 {
		open := !d.done && !r.canceled.Load()
		d.mu.Unlock()
		return 0, false, open
	}
	idx = d.buf[d.head]
	d.head = (d.head + 1) % len(d.buf)
	d.count--
	d.notFull.Signal()
	d.mu.Unlock()
	return idx, true, true
}

// stealBack takes the newest task from a foreign deque without blocking.
func (d *deque) stealBack() (idx int, ok bool) {
	d.mu.Lock()
	if d.count == 0 {
		d.mu.Unlock()
		return 0, false
	}
	d.count--
	idx = d.buf[(d.head+d.count)%len(d.buf)]
	d.notFull.Signal()
	d.mu.Unlock()
	return idx, true
}

// take accounts one task acquisition; the final take wakes waiting
// thieves so they can exit.
func (r *run) take() {
	if r.remaining.Add(-1) == 0 {
		r.bump()
	}
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
	r.opts.Telemetry.SetGauge(MetricInflightBytes, "", float64(cur))
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

// worker drains its home shard front-to-back, then turns thief: it
// sweeps the other shards' deque tails until the whole fleet is taken.
func (r *run) worker(root *telemetry.Span, id, home int) {
	ws := root.StartChild("scan.worker",
		telemetry.A("worker", strconv.Itoa(id)),
		telemetry.A("shard", strconv.Itoa(home)))
	defer ws.End()
	var hist telemetry.Histogram
	defer r.opts.Telemetry.MergeHistogram(telemetry.HistImageScan, &hist)

	for {
		idx, ok, open := r.shards[home].popFront(r)
		if !ok {
			if !open {
				break // shard exhausted (or canceled) → steal phase
			}
			continue
		}
		r.take()
		r.process(idx, &hist)
	}

	for !r.canceled.Load() && r.remaining.Load() > 0 {
		gen := r.gen()
		idx, ok := r.steal(home)
		if !ok {
			r.waitSteal(gen)
			continue
		}
		r.take()
		r.steals.Add(1)
		r.process(idx, &hist)
	}
}

// steal sweeps the other shards round-robin from the thief's home.
func (r *run) steal(home int) (idx int, ok bool) {
	n := len(r.shards)
	for off := 1; off < n; off++ {
		if idx, ok := r.shards[(home+off)%n].stealBack(); ok {
			return idx, true
		}
	}
	return 0, false
}

// process loads one task, runs the per-image step on it, and delivers
// the outcome with its counter, progress and log side effects.
func (r *run) process(idx int, hist *telemetry.Histogram) {
	size := r.src.Size(idx)
	if !r.acquire(size) {
		// Canceled while waiting for budget: the task was already taken,
		// so it is dropped, exactly like tasks never discovered. Run
		// reports the cancellation.
		return
	}
	defer r.release(size)

	start := time.Now()
	var it scan.Item
	if img, err := r.src.Load(idx); err != nil {
		it = scan.Item{Err: &scan.ScanError{Err: err}}
		hist.Observe(time.Since(start))
	} else {
		var elapsed time.Duration
		it, elapsed = r.step.Run(img, start, nil)
		hist.Observe(elapsed)
	}

	rec := r.opts.Telemetry
	rec.Add(telemetry.CounterImagesScanned, 1)
	rec.AddLabeled(MetricImages, "", 1)
	if it.Err == nil {
		warnings := len(it.Report.Warnings)
		r.findings.Add(int64(warnings))
		rec.Add(telemetry.CounterFindingsEmitted, int64(warnings))
		r.opts.Progress.Step(warnings)
	} else {
		it.Err.Path = r.src.Name(idx)
		r.errors.Add(1)
		rec.Add(telemetry.CounterScanErrors, 1)
		rec.AddLabeled(MetricErrors, "", 1)
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
