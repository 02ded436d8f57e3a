package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
)

// SnapshotVersion is the schema version stamped into every exported JSON
// snapshot. Bump it when a field changes meaning or disappears; adding
// fields is backward-compatible and does not require a bump. Version 2
// added the top-level "phase" string and "runtime" sampler section; every
// v1 field kept its exact meaning and encoding (the v1-compat test locks
// that).
const SnapshotVersion = 2

// The export structs fix the JSON field order (encoding/json emits struct
// fields in declaration order) and flatten Durations to integral
// microseconds, so snapshots diff cleanly and golden tests hold.

type exportFile struct {
	Version    int            `json:"version"`
	Phase      string         `json:"phase"`
	Counters   []exportCount  `json:"counters"`
	Stages     []exportStage  `json:"stages"`
	Histograms []exportHist   `json:"histograms"`
	Runtime    *exportRuntime `json:"runtime,omitempty"`
	Spans      []exportSpan   `json:"spans"`
	// Optional sections added for the resident scan daemon; absent (not
	// rendered) for pipelines that never record them, which keeps the
	// pre-daemon goldens byte-identical without a version bump.
	Build             *exportBuild        `json:"build,omitempty"`
	LabeledCounters   []exportLabeled     `json:"labeledCounters,omitempty"`
	Gauges            []exportGauge       `json:"gauges,omitempty"`
	LabeledHistograms []exportLabeledHist `json:"labeledHistograms,omitempty"`
}

// exportBuild is the SetBuildInfo metadata.
type exportBuild struct {
	Version   string `json:"version"`
	GoVersion string `json:"goVersion"`
}

type exportLabeled struct {
	Family string `json:"family"`
	Labels string `json:"labels"`
	Value  int64  `json:"value"`
}

type exportGauge struct {
	Family string  `json:"family"`
	Labels string  `json:"labels"`
	Value  float64 `json:"value"`
}

type exportLabeledHist struct {
	Family string `json:"family"`
	Labels string `json:"labels"`
	exportHist
}

// exportRuntime is the Sampler's ring-buffer timeseries: process-health
// samples at a fixed cadence, oldest first.
type exportRuntime struct {
	SampleEveryMicros int64                 `json:"sampleEveryMicros"`
	Samples           []exportRuntimeSample `json:"samples"`
}

type exportRuntimeSample struct {
	AtMicros      int64  `json:"atMicros"`
	HeapBytes     uint64 `json:"heapBytes"`
	GCPauseMicros int64  `json:"gcPauseMicros"`
	GCCycles      uint32 `json:"gcCycles"`
	Goroutines    int    `json:"goroutines"`
	ProgressDone  int64  `json:"progressDone"`
	ProgressTotal int64  `json:"progressTotal"`
}

type exportCount struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

type exportStage struct {
	Name        string `json:"name"`
	TotalMicros int64  `json:"totalMicros"`
	Runs        int64  `json:"runs"`
}

type exportHist struct {
	Name      string         `json:"name"`
	Count     uint64         `json:"count"`
	SumMicros int64          `json:"sumMicros"`
	MinMicros int64          `json:"minMicros"`
	MaxMicros int64          `json:"maxMicros"`
	P50Micros int64          `json:"p50Micros"`
	P90Micros int64          `json:"p90Micros"`
	P99Micros int64          `json:"p99Micros"`
	Buckets   []exportBucket `json:"buckets"`
}

// exportBucket is one histogram bucket; UpperMicros -1 marks the overflow
// bucket (an unbounded upper edge).
type exportBucket struct {
	UpperMicros int64  `json:"upperMicros"`
	Count       uint64 `json:"count"`
}

type exportSpan struct {
	ID          int64  `json:"id"`
	Parent      int64  `json:"parent"`
	Name        string `json:"name"`
	Attrs       []Attr `json:"attrs,omitempty"`
	StartMicros int64  `json:"startMicros"`
	DurMicros   int64  `json:"durMicros"`
}

// exportHistFrom flattens one histogram snapshot into its export shape.
func exportHistFrom(h HistogramData) exportHist {
	eh := exportHist{
		Name:      h.Name,
		Count:     h.Count,
		SumMicros: h.Sum.Microseconds(),
		MinMicros: h.Min.Microseconds(),
		MaxMicros: h.Max.Microseconds(),
		P50Micros: h.P50.Microseconds(),
		P90Micros: h.P90.Microseconds(),
		P99Micros: h.P99.Microseconds(),
		Buckets:   []exportBucket{},
	}
	for _, b := range h.Buckets {
		ub := b.Upper.Microseconds()
		if b.Upper == bucketUpper(histBuckets) {
			ub = -1
		}
		eh.Buckets = append(eh.Buckets, exportBucket{UpperMicros: ub, Count: b.Count})
	}
	return eh
}

// JSON serializes the snapshot as the versioned machine-readable document
// behind the CLI's -stats-json flag. Field order is fixed by the export
// structs and every list is sorted (counters/stages/histograms by name,
// spans by start offset then id), so equal snapshots serialize to equal
// bytes.
func (s Snapshot) JSON() ([]byte, error) {
	f := exportFile{
		Version:    SnapshotVersion,
		Phase:      s.Phase,
		Counters:   []exportCount{},
		Stages:     []exportStage{},
		Histograms: []exportHist{},
		Spans:      []exportSpan{},
	}
	if s.SampleEvery > 0 || len(s.Runtime) > 0 {
		rt := &exportRuntime{
			SampleEveryMicros: s.SampleEvery.Microseconds(),
			Samples:           []exportRuntimeSample{},
		}
		for _, smp := range s.Runtime {
			rt.Samples = append(rt.Samples, exportRuntimeSample{
				AtMicros:      smp.At.Microseconds(),
				HeapBytes:     smp.HeapBytes,
				GCPauseMicros: smp.GCPauseTotal.Microseconds(),
				GCCycles:      smp.GCCycles,
				Goroutines:    smp.Goroutines,
				ProgressDone:  smp.ProgressDone,
				ProgressTotal: smp.ProgressTotal,
			})
		}
		f.Runtime = rt
	}
	for _, c := range s.Counters {
		f.Counters = append(f.Counters, exportCount{Name: c.Name, Value: c.Value})
	}
	for _, st := range s.Stages {
		f.Stages = append(f.Stages, exportStage{Name: st.Name, TotalMicros: st.Total.Microseconds(), Runs: st.Runs})
	}
	for _, h := range s.Histograms {
		f.Histograms = append(f.Histograms, exportHistFrom(h))
	}
	if s.BuildVersion != "" {
		f.Build = &exportBuild{Version: s.BuildVersion, GoVersion: s.GoVersion}
	}
	for _, c := range s.LabeledCounters {
		f.LabeledCounters = append(f.LabeledCounters, exportLabeled{Family: c.Family, Labels: c.Labels, Value: c.Value})
	}
	for _, g := range s.Gauges {
		f.Gauges = append(f.Gauges, exportGauge{Family: g.Family, Labels: g.Labels, Value: g.Value})
	}
	for _, lh := range s.LabeledHistograms {
		f.LabeledHistograms = append(f.LabeledHistograms, exportLabeledHist{
			Family: lh.Family, Labels: lh.Labels, exportHist: exportHistFrom(lh.Data),
		})
	}
	for _, sp := range s.Spans {
		f.Spans = append(f.Spans, exportSpan{
			ID:          sp.ID,
			Parent:      sp.Parent,
			Name:        sp.Name,
			Attrs:       sp.Attrs,
			StartMicros: sp.Start.Microseconds(),
			DurMicros:   sp.Dur.Microseconds(),
		})
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("telemetry: encode snapshot: %w", err)
	}
	return append(data, '\n'), nil
}

// writeArtifact writes an exported document to a file, or to stdout when
// path is "-" (the conventional stdout sentinel; no file named "-" is ever
// created).
func writeArtifact(path string, data []byte, what string) error {
	if path == "-" {
		if _, err := os.Stdout.Write(data); err != nil {
			return fmt.Errorf("telemetry: write %s to stdout: %w", what, err)
		}
		return nil
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("telemetry: write %s: %w", what, err)
	}
	return nil
}

// WriteJSON writes the snapshot document to a file ("-" for stdout).
func (s Snapshot) WriteJSON(path string) error {
	data, err := s.JSON()
	if err != nil {
		return err
	}
	return writeArtifact(path, data, "snapshot")
}
