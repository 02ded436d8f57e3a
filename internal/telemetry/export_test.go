package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// exportFixture builds a recorder exercising every signal kind — counters,
// stages, histograms, and a two-worker span tree — with fixed values, then
// snapshots it onto the synthetic clock so the exported bytes are fully
// deterministic.
func exportFixture() Snapshot {
	r := New()
	r.Add(CounterImagesScanned, 4)
	r.Add(CounterFindingsEmitted, 9)
	r.Observe(StageScanBatch, 10*time.Millisecond)
	for _, d := range []time.Duration{
		800 * time.Nanosecond,
		3 * time.Microsecond,
		70 * time.Microsecond,
		1200 * time.Microsecond,
		30 * time.Millisecond,
	} {
		r.ObserveDur(HistImageScan, d)
	}
	root := r.StartSpan("scan.batch", A("images", "2"), A("workers", "2"))
	w0 := root.StartChild("scan.worker", A("worker", "0"))
	img0 := w0.StartChild("scan.image", A("task", "img-0"))
	img0.SetAttr("image", "img-0")
	img0.End()
	w1 := root.StartChild("scan.worker", A("worker", "1"))
	img1 := w1.StartChild("scan.image", A("task", "img-1"))
	img1.End()
	w1.End()
	w0.End()
	root.SetAttr("errors", "0")
	root.End()
	r.SetPhase("done")
	s := r.Snapshot()
	// Hand-built runtime samples: the real sampler reads live MemStats,
	// which would leak nondeterminism into the golden bytes.
	s.SampleEvery = 250 * time.Millisecond
	s.Runtime = []RuntimeSample{
		{HeapBytes: 1 << 20, GCPauseTotal: 120 * time.Microsecond, GCCycles: 1, Goroutines: 8, ProgressDone: 1, ProgressTotal: 4},
		{HeapBytes: 3 << 20, GCPauseTotal: 260 * time.Microsecond, GCCycles: 2, Goroutines: 10, ProgressDone: 4, ProgressTotal: 4},
	}
	return s.NormalizeTimes(1000 * time.Microsecond)
}

// NormalizeTimes returns a copy of the snapshot with every span rewritten
// onto a synthetic clock — span i (in the snapshot's deterministic order)
// starts at i*step and lasts step — every stage total zeroed, and every
// runtime sample's offset rewritten to i*step. Counter values, histogram
// contents, span names/ids/attrs, the tree shape, and the sampled gauge
// values are preserved. Golden tests use this to strip the only
// nondeterministic inputs (wall-clock readings) from exported documents.
func (s Snapshot) NormalizeTimes(step time.Duration) Snapshot {
	out := s
	out.Stages = append([]StageTiming(nil), s.Stages...)
	for i := range out.Stages {
		out.Stages[i].Total = 0
	}
	out.Spans = append([]SpanData(nil), s.Spans...)
	sort.Slice(out.Spans, func(i, j int) bool { return out.Spans[i].ID < out.Spans[j].ID })
	for i := range out.Spans {
		out.Spans[i].Start = time.Duration(i) * step
		out.Spans[i].Dur = step
	}
	out.Runtime = append([]RuntimeSample(nil), s.Runtime...)
	for i := range out.Runtime {
		out.Runtime[i].At = time.Duration(i) * step
	}
	return out
}

func checkGolden(t *testing.T, got []byte, name string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("%s changed; run `go test ./internal/telemetry -update` if intended\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

// TestSnapshotJSONGolden locks the versioned -stats-json document format
// byte-for-byte on a normalized snapshot.
func TestSnapshotJSONGolden(t *testing.T) {
	got, err := exportFixture().JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, got, "snapshot.golden.json")

	// The document must also be semantically sound, not just stable.
	var doc struct {
		Version    int `json:"version"`
		Histograms []struct {
			Name      string `json:"name"`
			Count     uint64 `json:"count"`
			P50Micros int64  `json:"p50Micros"`
			P99Micros int64  `json:"p99Micros"`
			Buckets   []struct {
				UpperMicros int64  `json:"upperMicros"`
				Count       uint64 `json:"count"`
			} `json:"buckets"`
		} `json:"histograms"`
		Spans []struct {
			ID     int64 `json:"id"`
			Parent int64 `json:"parent"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != SnapshotVersion {
		t.Fatalf("version = %d, want %d", doc.Version, SnapshotVersion)
	}
	if len(doc.Histograms) != 1 || doc.Histograms[0].Name != HistImageScan {
		t.Fatalf("histograms = %+v", doc.Histograms)
	}
	h := doc.Histograms[0]
	if h.Count != 5 || h.P50Micros <= 0 || h.P99Micros <= 0 {
		t.Fatalf("histogram stats = %+v, want count 5 and positive p50/p99", h)
	}
	var bucketTotal uint64
	for _, b := range h.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != h.Count {
		t.Fatalf("bucket counts sum to %d, want %d", bucketTotal, h.Count)
	}
	if len(doc.Spans) != 5 {
		t.Fatalf("spans = %d, want 5", len(doc.Spans))
	}
}

// TestSnapshotV1Compat proves the v2 document is a strict superset of v1:
// every field a v1 consumer reads keeps its exact meaning and encoding.
// testdata/snapshot.v1.golden.json is the last v1 export of this same
// fixture, frozen when the version was bumped.
func TestSnapshotV1Compat(t *testing.T) {
	type v1Doc struct {
		Counters   []exportCount `json:"counters"`
		Stages     []exportStage `json:"stages"`
		Histograms []exportHist  `json:"histograms"`
		Spans      []exportSpan  `json:"spans"`
	}
	old, err := os.ReadFile(filepath.Join("testdata", "snapshot.v1.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := exportFixture().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var want, got v1Doc
	if err := json.Unmarshal(old, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(cur, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v1 view of the v2 document diverged\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestChromeTraceGolden locks the trace_event export byte-for-byte and
// checks the document loads per the spec: a traceEvents array of metadata
// ("M") lane names plus complete ("X") events with microsecond ts/dur.
func TestChromeTraceGolden(t *testing.T) {
	got, err := exportFixture().ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, got, "trace.golden.json")

	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Dur  int64             `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	lanes := map[string]int{}
	var complete int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "thread_name" {
				t.Fatalf("metadata event %q, want thread_name", ev.Name)
			}
			lanes[ev.Args["name"]] = ev.Tid
		case "X":
			complete++
			if ev.Pid != 1 || ev.Dur <= 0 {
				t.Fatalf("bad complete event: %+v", ev)
			}
			if ev.Args["spanId"] == "" {
				t.Fatalf("complete event lost its spanId: %+v", ev)
			}
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if complete != 5 {
		t.Fatalf("complete events = %d, want 5", complete)
	}
	// The two pool workers render as distinct per-worker timelines.
	w0, ok0 := lanes["scan.batch/worker 0"]
	w1, ok1 := lanes["scan.batch/worker 1"]
	if !ok0 || !ok1 || w0 == w1 {
		t.Fatalf("worker lanes = %v, want distinct scan.batch/worker 0 and 1", lanes)
	}
}

// TestNormalizeTimes pins what normalization may and may not touch.
func TestNormalizeTimes(t *testing.T) {
	r := New()
	r.Add("c", 1)
	r.Observe("st", time.Second)
	r.ObserveDur(HistImageParse, 3*time.Millisecond)
	a := r.StartSpan("a")
	b := a.StartChild("b")
	b.End()
	a.End()

	orig := r.Snapshot()
	norm := orig.NormalizeTimes(time.Millisecond)
	if norm.Stages[0].Total != 0 {
		t.Fatal("stage totals should be zeroed")
	}
	if orig.Stages[0].Total != time.Second {
		t.Fatal("normalization mutated the original snapshot")
	}
	if len(norm.Spans) != 2 {
		t.Fatalf("spans = %d", len(norm.Spans))
	}
	for i, sp := range norm.Spans {
		if sp.Start != time.Duration(i)*time.Millisecond || sp.Dur != time.Millisecond {
			t.Fatalf("span %d not on the synthetic clock: %+v", i, sp)
		}
	}
	if norm.Spans[1].Parent != norm.Spans[0].ID {
		t.Fatal("normalization broke the span tree")
	}
	if norm.Counters[0].Value != 1 || norm.Histograms[0].Count != 1 {
		t.Fatal("normalization touched counters or histograms")
	}
}
