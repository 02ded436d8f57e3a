package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/scan"
	"repro/internal/sysimage"
)

// Bounds on the batch endpoint's query parameters: each worker is a
// goroutine and the coordinator raises the workers to at least one per
// shard, so one request may ask for at most maxBatchParallelism of
// either, and for a synthetic fleet of at most maxSyntheticImages (the
// largest fleet the fleet benchmarks drive).
const (
	maxBatchParallelism = 64
	maxSyntheticImages  = 100_000
)

// batchLine is one NDJSON record of a /v1/scan/{app}/batch response:
// exactly one per input image, in completion order, carrying the image's
// global input index so clients can recover the canonical order.
type batchLine struct {
	Index    int             `json:"index"`
	Image    string          `json:"image,omitempty"`
	Path     string          `json:"path,omitempty"`
	Findings int             `json:"findings"`
	Report   json.RawMessage `json:"report,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// batchSummary is the final NDJSON record: the fleet-wide roll-up plus
// the coordinator topology that produced it.
type batchSummary struct {
	Summary        bool   `json:"summary"`
	RequestID      string `json:"requestId"`
	App            string `json:"app"`
	PlanVersion    string `json:"planVersion"`
	Images         int64  `json:"images"`
	Errors         int64  `json:"errors"`
	Findings       int64  `json:"findings"`
	Steals         int64  `json:"steals"`
	Shards         int    `json:"shards"`
	Workers        int    `json:"workers"`
	HighWaterBytes int64  `json:"highWaterBytes"`
	ElapsedMicros  int64  `json:"elapsedMicros"`
	Error          string `json:"error,omitempty"`
}

// handleScanBatch scans a whole fleet through the sharded coordinator and
// streams one NDJSON record per image as it completes, then a summary
// record. The fleet comes from ?dir= (a server-local image directory),
// ?dir=&synthetic=N (a synthetic fleet cycling that directory's images),
// or the request body (NDJSON, one image document per line). ?shards= and
// ?workers= tune the coordinator; a value outside [0, 64] gets 400 before
// any scan work starts. Every finding feeds the alert pipeline
// with per-image provenance (image ID, request ID, plan version). Client
// disconnect cancels the fleet promptly.
func (d *Daemon) handleScanBatch(w http.ResponseWriter, r *http.Request, rc *reqCtx) {
	entry, ok := d.reg.Get(rc.App)
	if !ok {
		apiError(w, rc, http.StatusNotFound, "no plan loaded for app %q", rc.App)
		return
	}
	rc.Span.SetAttr("plan_version", entry.Version)

	q := r.URL.Query()
	shards, err := intParam(q, "shards", 0, maxBatchParallelism)
	if err != nil {
		apiError(w, rc, http.StatusBadRequest, "%v", err)
		return
	}
	workers, err := intParam(q, "workers", 0, maxBatchParallelism)
	if err != nil {
		apiError(w, rc, http.StatusBadRequest, "%v", err)
		return
	}
	src, err := d.batchSource(r)
	if err != nil {
		apiError(w, rc, http.StatusBadRequest, "%v", err)
		return
	}
	rc.Span.SetAttr("images", strconv.Itoa(src.Len()))
	if d.opts.ScanHook != nil {
		d.opts.ScanHook(rc.App)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var mu sync.Mutex

	coord := &fleet.Coordinator{Opts: fleet.Options{
		Check:       entry.Plan.Check,
		Shards:      shards,
		Workers:     workers,
		Telemetry:   d.rec,
		Log:         d.log,
		Alerts:      d.opts.Alerts,
		RequestID:   rc.ID,
		App:         rc.App,
		PlanVersion: entry.Version,
	}}
	start := time.Now()
	stats, runErr := coord.Run(r.Context(), src, func(idx int, it scan.Item) {
		mu.Lock()
		defer mu.Unlock()
		if it.Err != nil {
			enc.Encode(batchLine{Index: idx, Image: it.Err.ImageID, Path: it.Err.Path, Error: it.Err.Err.Error()})
		} else {
			buf := renderBufPool.Get().(*bytes.Buffer)
			if err := it.Report.AppendJSON(buf); err == nil {
				enc.Encode(batchLine{
					Index:    idx,
					Image:    it.ImageID,
					Findings: len(it.Report.Warnings),
					Report:   json.RawMessage(buf.Bytes()),
				})
			}
			buf.Reset()
			renderBufPool.Put(buf)
		}
		if flusher != nil {
			flusher.Flush()
		}
	})

	sum := batchSummary{
		Summary:        true,
		RequestID:      rc.ID,
		App:            rc.App,
		PlanVersion:    entry.Version,
		Images:         stats.Images,
		Errors:         stats.Errors,
		Findings:       stats.Findings,
		Steals:         stats.Steals,
		Shards:         stats.Shards,
		Workers:        stats.Workers,
		HighWaterBytes: stats.HighWaterBytes,
		ElapsedMicros:  time.Since(start).Microseconds(),
	}
	if runErr != nil {
		sum.Error = runErr.Error()
	}
	mu.Lock()
	enc.Encode(sum)
	mu.Unlock()
	if flusher != nil {
		flusher.Flush()
	}
}

// batchSource resolves the request's fleet: a server-local directory, a
// synthetic fleet cycling it, or inline NDJSON image documents.
func (d *Daemon) batchSource(r *http.Request) (fleet.Source, error) {
	q := r.URL.Query()
	if dir := q.Get("dir"); dir != "" {
		if q.Get("synthetic") != "" {
			n, err := intParam(q, "synthetic", 1, maxSyntheticImages)
			if err != nil {
				return nil, err
			}
			imgs, err := sysimage.LoadDir(dir)
			if err != nil {
				return nil, err
			}
			return fleet.NewSyntheticSource(imgs, n)
		}
		return fleet.NewDirSource(dir)
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, d.opts.MaxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("read batch body: %w", err)
	}
	if int64(len(body)) > d.opts.MaxBodyBytes {
		return nil, fmt.Errorf("body exceeds %d bytes", d.opts.MaxBodyBytes)
	}
	var blobs [][]byte
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		blobs = append(blobs, line)
	}
	if len(blobs) == 0 {
		return nil, fmt.Errorf("empty batch (send NDJSON image documents, or use ?dir=)")
	}
	return &fleet.BlobSource{Blobs: blobs, BaseName: "body"}, nil
}

// intParam parses query parameter name as an integer in [lo, hi]; an
// absent parameter is 0.
func intParam(q url.Values, name string, lo, hi int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < lo || n > hi {
		return 0, fmt.Errorf("%s must be an integer in [%d, %d], got %q", name, lo, hi, v)
	}
	return n, nil
}
