package telemetry

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Add("x", 1)
	r.Observe("y", time.Second)
	r.StartStage("z")()
	if r.Counter("x") != 0 {
		t.Fatal("nil recorder should read zero")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Stages) != 0 {
		t.Fatal("nil recorder snapshot should be empty")
	}
}

func TestCountersAndStages(t *testing.T) {
	r := New()
	r.Add(CounterImagesParsed, 3)
	r.Add(CounterImagesParsed, 2)
	r.Observe(StageAssembleParse, 10*time.Millisecond)
	r.Observe(StageAssembleParse, 5*time.Millisecond)
	if got := r.Counter(CounterImagesParsed); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	s := r.Snapshot()
	if len(s.Stages) != 1 || s.Stages[0].Total != 15*time.Millisecond || s.Stages[0].Runs != 2 {
		t.Fatalf("stage snapshot = %+v", s.Stages)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add("n", 1)
				r.Observe("s", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n"); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

// TestRenderGolden locks the -stats output format: a deterministic
// snapshot must render byte-identically to the committed golden file.
func TestRenderGolden(t *testing.T) {
	r := New()
	r.Add(CounterImagesParsed, 60)
	r.Add(CounterFilesParsed, 74)
	r.Add(CounterAttrsDeclared, 214)
	r.Add(CounterRulesValidated, 1520)
	r.Add(CounterRulesKept, 33)
	r.Add(CounterImagesScanned, 12)
	r.Add(CounterFindingsEmitted, 41)
	r.Add(CounterScanErrors, 1)
	r.Observe(StageAssembleParse, 1530*time.Microsecond)
	r.Observe(StageAssembleInfer, 2250*time.Microsecond)
	r.Observe(StageAssembleRows, 870*time.Microsecond)
	r.Observe(StageRulesInfer, 12400*time.Microsecond)
	r.Observe(StageScanBatch, 9100*time.Microsecond)
	r.Observe(StageScanBatch, 900*time.Microsecond)

	got := r.Render()
	golden := filepath.Join("testdata", "stats.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("stats rendering changed; run `go test ./internal/telemetry -update` if intended\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRenderEmpty(t *testing.T) {
	if got := New().Render(); got != "stats:\n  (empty)\n" {
		t.Fatalf("empty render = %q", got)
	}
}

// TestRenderPadWidensForLongNames checks that a name longer than the
// historical 36-column floor widens the name column for every row instead
// of breaking alignment (the old fixed %-36s format left long names flush
// against their values).
func TestRenderPadWidensForLongNames(t *testing.T) {
	long := "scan.a.counter.name.that.is.much.wider.than.the.36.column.floor"
	if len(long) <= minRenderPad {
		t.Fatalf("test name must exceed the floor (%d <= %d)", len(long), minRenderPad)
	}
	r := New()
	r.Add(long, 7)
	r.Add("short", 1)
	r.Observe("stage", 5*time.Millisecond)

	lines := strings.Split(strings.TrimRight(r.Render(), "\n"), "\n")
	var valueCols []int
	for _, l := range lines {
		if !strings.HasPrefix(l, "    ") {
			continue
		}
		body := l[4:]
		name := body[:strings.IndexByte(body, ' ')]
		rest := body[len(name):]
		valueCols = append(valueCols, 4+len(name)+len(rest)-len(strings.TrimLeft(rest, " ")))
	}
	if len(valueCols) != 3 {
		t.Fatalf("expected 3 data rows, got %d:\n%s", len(valueCols), r.Render())
	}
	for _, c := range valueCols {
		if c != valueCols[0] {
			t.Fatalf("value columns misaligned (%v):\n%s", valueCols, r.Render())
		}
	}
	if want := 4 + len(long) + 1; valueCols[0] != want {
		t.Fatalf("value column = %d, want %d (pad from longest name)", valueCols[0], want)
	}
}

// TestRenderLatencySection checks histograms render as a latency block
// with the quantile summary.
func TestRenderLatencySection(t *testing.T) {
	r := New()
	r.ObserveDur(HistImageScan, 2*time.Millisecond)
	r.ObserveDur(HistImageScan, 8*time.Millisecond)
	out := r.Render()
	if !strings.Contains(out, "  latency:\n") {
		t.Fatalf("no latency section:\n%s", out)
	}
	if !strings.Contains(out, HistImageScan) || !strings.Contains(out, "n=2 p50=") {
		t.Fatalf("latency row malformed:\n%s", out)
	}
}

// TestNameHasOneKind: the first update of a name fixes its kind, and
// updates of another kind under that name are dropped, so no exported
// name carries two types.
func TestNameHasOneKind(t *testing.T) {
	r := New()
	r.Add("x", 2)
	r.SetGauge("x", "", 5)
	r.AddLabeled("x", L("app", "a"), 1)
	r.ObserveDur("x", time.Millisecond)
	if _, ok := r.Gauge("x", ""); ok {
		t.Fatal("a counter's name also holds a gauge")
	}
	if got := r.LabeledCounter("x", L("app", "a")); got != 0 {
		t.Fatalf("a counter's name also holds a labeled counter (%d)", got)
	}
	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Value != 2 || len(s.Gauges)+len(s.LabeledCounters)+len(s.Histograms) != 0 {
		t.Fatalf("snapshot = %+v, want only counter x = 2", s)
	}
	if got := r.Counter("x"); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
}

// TestRecorderUpdatesAllocFree: once a series exists, updating it
// allocates nothing, so per-image telemetry stays off the GC.
func TestRecorderUpdatesAllocFree(t *testing.T) {
	r := New()
	labels := L("app", "a")
	var h Histogram
	h.Observe(time.Microsecond)
	update := func() {
		r.Add("c", 1)
		r.Observe("s", time.Microsecond)
		r.ObserveDur("h", time.Microsecond)
		r.MergeHistogram("h", &h)
		r.AddLabeled("lc", labels, 1)
		r.SetGauge("g", labels, 1)
		r.ObserveLabeled("lh", labels, time.Microsecond)
	}
	update()
	if allocs := testing.AllocsPerRun(100, update); allocs != 0 {
		t.Fatalf("updating existing series allocated %.1f objects per round, want 0", allocs)
	}
}
