package fleet_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	encore "repro"
	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/fleet"
	"repro/internal/scan"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// testFleet learns knowledge from a small training corpus and writes a
// target directory of n images; corrupt file names are added on top.
func testFleet(t *testing.T, n int, corruptFiles ...string) (*encore.Framework, *encore.Knowledge, string) {
	t.Helper()
	training, err := corpus.Training("mysql", 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	fw := encore.New()
	k, err := fw.Learn(training)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := corpus.Training("mysql", n, 77)
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range targets {
		img.ID = fmt.Sprintf("target-%03d", i)
	}
	dir := t.TempDir()
	if err := sysimage.SaveDir(dir, targets); err != nil {
		t.Fatal(err)
	}
	for _, name := range corruptFiles {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return fw, k, dir
}

// itemsEqual compares two scan items for byte-identical equivalence: same
// image identity, same rendered report, same error record.
func itemsEqual(t *testing.T, i int, got, want scan.Item) {
	t.Helper()
	if got.ImageID != want.ImageID {
		t.Fatalf("item %d: image = %q, want %q", i, got.ImageID, want.ImageID)
	}
	if (got.Err == nil) != (want.Err == nil) {
		t.Fatalf("item %d: err = %v, want %v", i, got.Err, want.Err)
	}
	if got.Err != nil {
		if got.Err.Error() != want.Err.Error() || got.Err.Path != want.Err.Path {
			t.Fatalf("item %d: err = %v (path %q), want %v (path %q)",
				i, got.Err, got.Err.Path, want.Err, want.Err.Path)
		}
		return
	}
	gj, err := got.Report.RenderJSON()
	if err != nil {
		t.Fatal(err)
	}
	wj, err := want.Report.RenderJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gj, wj) {
		t.Fatalf("item %d: report mismatch:\n%s\nwant:\n%s", i, gj, wj)
	}
}

// TestFleetMatchesUnsharded is the determinism property test: across
// shard/worker/queue/budget configurations — including degenerate ones
// that force heavy stealing or heavy budget contention — the coordinator's
// index-aggregated output is item-for-item identical to a serial
// Plan.Check loop over the source in input order. Run under -race this
// also exercises the deque and budget synchronization.
func TestFleetMatchesUnsharded(t *testing.T) {
	fw, k, dir := testFleet(t, 14, "0corrupt.json", "mcorrupt.json")
	plan := fw.CompilePlan(k)
	ref, err := fleet.NewDirSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := &scan.Result{Items: make([]scan.Item, ref.Len())}
	for i := range want.Items {
		img, err := ref.Load(i)
		if err != nil {
			want.Items[i] = scan.Item{Err: &scan.ScanError{Path: ref.Name(i), Err: err}}
			continue
		}
		report, err := plan.Check(img)
		if err != nil {
			want.Items[i] = scan.Item{ImageID: img.ID, Err: &scan.ScanError{ImageID: img.ID, Path: ref.Name(i), Err: err}}
			continue
		}
		want.Items[i] = scan.Item{ImageID: img.ID, Report: report}
	}

	configs := []fleet.Options{
		{},                                       // defaults
		{Shards: 1, Workers: 1},                  // fully serial
		{Shards: 3, Workers: 7},                  // uneven split
		{Shards: 16, Workers: 16},                // more shards than fits evenly
		{Shards: 4, Workers: 8, QueueDepth: 1},   // constant stealing pressure
		{Shards: 2, Workers: 6, MemoryBudget: 1}, // budget admits one image at a time
		{Shards: 5, Workers: 2},                  // fewer workers than shards (raised)
	}
	for ci, opts := range configs {
		opts.Check = plan.Check
		src, err := fleet.NewDirSource(dir)
		if err != nil {
			t.Fatal(err)
		}
		if src.Len() != len(want.Items) {
			t.Fatalf("config %d: source len = %d, want %d", ci, src.Len(), len(want.Items))
		}
		coord := &fleet.Coordinator{Opts: opts}
		got, stats, err := coord.Collect(context.Background(), src)
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		if len(got.Items) != len(want.Items) {
			t.Fatalf("config %d: items = %d, want %d", ci, len(got.Items), len(want.Items))
		}
		for i := range want.Items {
			itemsEqual(t, i, got.Items[i], want.Items[i])
		}
		if stats.Images != int64(len(want.Items)) {
			t.Fatalf("config %d: stats.Images = %d, want %d", ci, stats.Images, len(want.Items))
		}
		if stats.Errors != 2 {
			t.Fatalf("config %d: stats.Errors = %d, want 2", ci, stats.Errors)
		}
	}
}

// sleepSource is a synthetic fleet whose per-index check cost is dictated
// by the test — the lever for skewing shard load.
type sleepSource struct {
	n int
}

func (s *sleepSource) Len() int          { return s.n }
func (s *sleepSource) Name(i int) string { return fmt.Sprintf("sleep-%04d", i) }
func (s *sleepSource) Size(i int) int64  { return 0 }
func (s *sleepSource) Load(i int) (*sysimage.Image, error) {
	return &sysimage.Image{ID: fmt.Sprintf("sleep-%04d", i)}, nil
}

// TestFleetWorkStealing pins the fairness property: with two shards where
// shard 0's range holds ~95% of the work, shard 1's worker must finish its
// slice and steal from shard 0 rather than idle. Every index is still
// delivered exactly once.
func TestFleetWorkStealing(t *testing.T) {
	const n = 80
	src := &sleepSource{n: n}
	var mu sync.Mutex
	seen := map[int]int{}
	coord := &fleet.Coordinator{Opts: fleet.Options{
		Check: func(img *sysimage.Image) (*detect.Report, error) {
			var idx int
			fmt.Sscanf(img.ID, "sleep-%04d", &idx)
			if idx < n/2 {
				time.Sleep(2 * time.Millisecond) // shard 0's range: the heavy 95%
			}
			return &detect.Report{SystemID: img.ID}, nil
		},
		Shards:  2,
		Workers: 2,
	}}
	stats, err := coord.Run(context.Background(), src, func(idx int, it scan.Item) {
		mu.Lock()
		seen[idx]++
		mu.Unlock()
		if it.Err != nil {
			t.Errorf("index %d failed: %v", idx, it.Err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("delivered %d distinct indices, want %d", len(seen), n)
	}
	for idx, c := range seen {
		if c != 1 {
			t.Fatalf("index %d delivered %d times", idx, c)
		}
	}
	if stats.Steals == 0 {
		t.Fatal("skewed fleet produced zero steals; shard 1's worker idled instead of helping")
	}
	t.Logf("steals = %d of %d tasks", stats.Steals, n)
}

// TestFleetCancelStopsPromptlyWithoutLeaks is the goroutine-leak
// regression: canceling mid-walk must stop discovery, workers, and
// thieves promptly and join every goroutine the coordinator started.
func TestFleetCancelStopsPromptlyWithoutLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	const n = 10_000
	src := &sleepSource{n: n}
	ctx, cancel := context.WithCancel(context.Background())
	var processed int64
	var mu sync.Mutex
	coord := &fleet.Coordinator{Opts: fleet.Options{
		Check: func(img *sysimage.Image) (*detect.Report, error) {
			time.Sleep(200 * time.Microsecond)
			return &detect.Report{SystemID: img.ID}, nil
		},
		Shards:     4,
		Workers:    8,
		QueueDepth: 2, // keep discovery blocked on backpressure when canceled
	}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := coord.Run(ctx, src, func(idx int, it scan.Item) {
			mu.Lock()
			processed++
			if processed == 20 {
				cancel()
			}
			mu.Unlock()
		})
		if err != context.Canceled {
			t.Errorf("Run error = %v, want context.Canceled", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator did not stop within 10s of cancellation")
	}
	cancel()
	mu.Lock()
	got := processed
	mu.Unlock()
	if got >= n {
		t.Fatalf("processed the whole fleet (%d) despite cancellation", got)
	}
	// Goroutine count settles back; poll briefly to absorb runtime noise.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			sz := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:sz])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// sizedSource reports a fixed Size per task so budget arithmetic is exact.
type sizedSource struct {
	n    int
	size int64
}

func (s *sizedSource) Len() int          { return s.n }
func (s *sizedSource) Name(i int) string { return fmt.Sprintf("sized-%04d", i) }
func (s *sizedSource) Size(i int) int64  { return s.size }
func (s *sizedSource) Load(i int) (*sysimage.Image, error) {
	return &sysimage.Image{ID: fmt.Sprintf("sized-%04d", i)}, nil
}

// TestFleetMemoryBudgetInvariant pins the budget's hard guarantee: the
// in-flight reservation high-water mark never exceeds the configured
// budget, no matter how many workers contend for it.
func TestFleetMemoryBudgetInvariant(t *testing.T) {
	const budget = 4 << 20
	src := &sizedSource{n: 200, size: 1 << 20}
	coord := &fleet.Coordinator{Opts: fleet.Options{
		Check: func(img *sysimage.Image) (*detect.Report, error) {
			return &detect.Report{SystemID: img.ID}, nil
		},
		Shards:       4,
		Workers:      16,
		MemoryBudget: budget,
	}}
	stats, err := coord.Run(context.Background(), src, func(int, scan.Item) {})
	if err != nil {
		t.Fatal(err)
	}
	if stats.HighWaterBytes == 0 {
		t.Fatal("high-water mark never recorded")
	}
	if stats.HighWaterBytes > budget {
		t.Fatalf("high water %d exceeds budget %d", stats.HighWaterBytes, budget)
	}
}

// TestFleetOversizedImageAdmitted pins the no-deadlock rule: a single
// image larger than the whole budget is clamped and admitted alone.
func TestFleetOversizedImageAdmitted(t *testing.T) {
	src := &sizedSource{n: 3, size: 8 << 20}
	coord := &fleet.Coordinator{Opts: fleet.Options{
		Check: func(img *sysimage.Image) (*detect.Report, error) {
			return &detect.Report{SystemID: img.ID}, nil
		},
		MemoryBudget: 1 << 20,
	}}
	stats, err := coord.Run(context.Background(), src, func(int, scan.Item) {})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Images != 3 {
		t.Fatalf("images = %d, want 3", stats.Images)
	}
	if stats.HighWaterBytes > 1<<20 {
		t.Fatalf("high water %d exceeds clamped budget", stats.HighWaterBytes)
	}
}

// TestFleetConstantMemory is the constant-memory pin: growing a synthetic
// fleet 10× (1k → 10k images) must not grow peak heap, because only the
// bounded deques and in-flight images are ever resident. Peak heap is
// observed through the runtime sampler, the same instrument the CLI's
// -serve mode exposes.
func TestFleetConstantMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale walk; skipped in -short")
	}
	variants, err := corpus.Training("mysql", 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	check := func(img *sysimage.Image) (*detect.Report, error) {
		return &detect.Report{SystemID: img.ID}, nil
	}
	peak := func(n int) uint64 {
		src, err := fleet.NewSyntheticSource(variants, n)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		s := telemetry.NewSampler(2*time.Millisecond, 1<<14)
		s.Start()
		coord := &fleet.Coordinator{Opts: fleet.Options{Check: check, Shards: 4, Workers: 8}}
		stats, err := coord.Run(context.Background(), src, func(int, scan.Item) {})
		s.Stop()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Images != int64(n) {
			t.Fatalf("images = %d, want %d", stats.Images, n)
		}
		var max uint64
		for _, sm := range s.Samples() {
			if sm.HeapBytes > max {
				max = sm.HeapBytes
			}
		}
		if max == 0 {
			// Tiny runs can finish between samples; fall back to a direct
			// reading so the ratio below still has a denominator.
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			max = ms.HeapAlloc
		}
		return max
	}
	p1k := peak(1_000)
	p10k := peak(10_000)
	t.Logf("peak heap: 1k=%d bytes, 10k=%d bytes", p1k, p10k)
	// 2× + slack absorbs GC timing noise while still failing hard on O(n)
	// growth (10× the images would blow straight past it).
	if limit := 2*p1k + 16<<20; p10k > limit {
		t.Fatalf("peak heap grew with fleet size: 1k=%d, 10k=%d (limit %d)", p1k, p10k, limit)
	}
}

// TestFleetTelemetryFamilies checks the encore_fleet_* families are
// recorded and rendered on the Prometheus exposition.
func TestFleetTelemetryFamilies(t *testing.T) {
	rec := telemetry.New()
	src := &sleepSource{n: 30}
	coord := &fleet.Coordinator{Opts: fleet.Options{
		Check: func(img *sysimage.Image) (*detect.Report, error) {
			time.Sleep(100 * time.Microsecond)
			return &detect.Report{SystemID: img.ID}, nil
		},
		Shards:    2,
		Workers:   2,
		Telemetry: rec,
	}}
	if _, err := coord.Run(context.Background(), src, func(int, scan.Item) {}); err != nil {
		t.Fatal(err)
	}
	if got := rec.LabeledCounter(fleet.MetricImages, ""); got != 30 {
		t.Fatalf("%s = %d, want 30", fleet.MetricImages, got)
	}
	if got := rec.LabeledCounter(fleet.MetricBatches, ""); got != 1 {
		t.Fatalf("%s = %d, want 1", fleet.MetricBatches, got)
	}
	prom := string(rec.Snapshot().PromText())
	for _, family := range []string{
		fleet.MetricImages, fleet.MetricBatches, fleet.MetricShards,
		fleet.MetricInflightBytes, fleet.MetricHighWaterBytes,
	} {
		if !bytes.Contains([]byte(prom), []byte(family)) {
			t.Fatalf("/metrics missing %s:\n%s", family, prom)
		}
	}
}

// TestSourceShapes covers the source adapters' naming and sizing
// contracts the coordinator depends on.
func TestSourceShapes(t *testing.T) {
	imgs, err := corpus.Training("mysql", 2, 5)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := sysimage.SaveDir(dir, imgs); err != nil {
		t.Fatal(err)
	}
	ds, err := fleet.NewDirSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 {
		t.Fatalf("dir len = %d, want 2", ds.Len())
	}
	if got := ds.Name(0); filepath.Dir(got) != dir {
		t.Fatalf("dir name %q not under %q", got, dir)
	}
	if ds.Size(0) <= 0 {
		t.Fatal("dir size should be the positive file size")
	}
	if _, err := ds.Load(0); err != nil {
		t.Fatal(err)
	}

	syn, err := fleet.NewSyntheticSource(imgs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if syn.Len() != 5 {
		t.Fatalf("synthetic len = %d, want 5", syn.Len())
	}
	im3, err := syn.Load(3)
	if err != nil {
		t.Fatal(err)
	}
	if im3.ID != "synthetic-0000003" {
		t.Fatalf("synthetic ID = %q", im3.ID)
	}
	if syn.Size(3) != syn.Size(1) {
		t.Fatal("synthetic variants should cycle sizes")
	}

	blob, _ := imgs[0].MarshalJSONIndent()
	bs := &fleet.BlobSource{Blobs: [][]byte{blob}, BaseName: "body"}
	if bs.Name(0) != "body[0]" {
		t.Fatalf("blob name = %q", bs.Name(0))
	}
	if _, err := bs.Load(0); err != nil {
		t.Fatal(err)
	}

	is := &fleet.ImageSource{Images: imgs}
	if is.Size(0) != 0 {
		t.Fatal("resident images must bypass the budget")
	}
	if is.Name(0) != imgs[0].ID {
		t.Fatalf("image name = %q, want %q", is.Name(0), imgs[0].ID)
	}
}

// panicSource is a sleepSource whose decoder panics on one index.
type panicSource struct {
	sleepSource
	bad int
}

func (s *panicSource) Load(i int) (*sysimage.Image, error) {
	if i == s.bad {
		panic("decoder bug")
	}
	return s.sleepSource.Load(i)
}

// TestFleetRecoversLoadPanic: a panicking Source.Load becomes that image's
// ScanError, counted like any other scan error, and the rest of the fleet
// is scanned; under Strict it fails the run instead of the process.
func TestFleetRecoversLoadPanic(t *testing.T) {
	const n, bad = 20, 7
	check := func(img *sysimage.Image) (*detect.Report, error) {
		return &detect.Report{SystemID: img.ID}, nil
	}
	rec := telemetry.New()
	coord := &fleet.Coordinator{Opts: fleet.Options{Check: check, Shards: 2, Workers: 2, Telemetry: rec}}
	res, stats, err := coord.Collect(context.Background(), &panicSource{sleepSource{n}, bad})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Images != n || stats.Errors != 1 {
		t.Fatalf("stats = %+v, want %d images and 1 error", stats, n)
	}
	for i, it := range res.Items {
		if (it.Err != nil) != (i == bad) {
			t.Fatalf("item %d: err = %v", i, it.Err)
		}
	}
	if e := res.Items[bad].Err; e.Path != "sleep-0007" || e.Err.Error() != "panic: decoder bug" {
		t.Fatalf("ScanError = %+v", e)
	}
	if got := rec.LabeledCounter(fleet.MetricErrors, ""); got != 1 {
		t.Fatalf("%s = %d, want 1", fleet.MetricErrors, got)
	}
	if got := rec.Counter(telemetry.CounterScanErrors); got != 1 {
		t.Fatalf("%s = %d, want 1", telemetry.CounterScanErrors, got)
	}

	coord.Opts.Strict = true
	_, err = coord.Run(context.Background(), &panicSource{sleepSource{n}, bad}, func(int, scan.Item) {})
	var se *scan.ScanError
	if !errors.As(err, &se) || se.Path != "sleep-0007" {
		t.Fatalf("strict run error = %v, want the panicking image's ScanError", err)
	}
}
