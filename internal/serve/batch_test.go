package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/alert"
	"repro/internal/corpus"
	"repro/internal/serve"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// batchLine mirrors one NDJSON record of the batch response.
type batchLine struct {
	Index    int             `json:"index"`
	Image    string          `json:"image"`
	Path     string          `json:"path"`
	Findings int             `json:"findings"`
	Report   json.RawMessage `json:"report"`
	Error    string          `json:"error"`

	Summary        bool   `json:"summary"`
	RequestID      string `json:"requestId"`
	PlanVersion    string `json:"planVersion"`
	Images         int64  `json:"images"`
	Errors         int64  `json:"errors"`
	TotalFindings  int64  `json:"-"`
	Shards         int    `json:"shards"`
	Workers        int    `json:"workers"`
	HighWaterBytes int64  `json:"highWaterBytes"`
}

// postBatch posts to the batch endpoint and splits the NDJSON stream into
// per-image lines plus the trailing summary.
func postBatch(t *testing.T, url string, body []byte) (int, []batchLine, *batchLine) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, nil
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var lines []batchLine
	var summary *batchLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ln batchLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ln.Summary {
			cp := ln
			summary = &cp
			continue
		}
		lines = append(lines, ln)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, lines, summary
}

// TestBatchScanBody scans an inline NDJSON fleet containing one corrupt
// document: every healthy image streams back a report line, the corrupt
// one an error line, and the summary reconciles with both.
func TestBatchScanBody(t *testing.T) {
	rec := telemetry.New()
	d, base := startDaemon(t, serve.Options{Rec: rec})
	if _, err := d.Registry().Register("mysql", "", buildPlan(t, "mysql", 30, 19), "test"); err != nil {
		t.Fatal(err)
	}

	victims, err := corpus.Training("mysql", 5, 123)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	for _, im := range victims {
		data, err := json.Marshal(im) // NDJSON needs one-line documents
		if err != nil {
			t.Fatal(err)
		}
		body.Write(data)
		body.WriteByte('\n')
	}
	body.WriteString("{corrupt\n")

	status, lines, summary := postBatch(t, base+"/v1/scan/mysql/batch?shards=2", body.Bytes())
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if len(lines) != 6 {
		t.Fatalf("lines = %d, want 6", len(lines))
	}
	seen := map[int]bool{}
	var errLines int
	for _, ln := range lines {
		if seen[ln.Index] {
			t.Fatalf("index %d delivered twice", ln.Index)
		}
		seen[ln.Index] = true
		if ln.Error != "" {
			errLines++
			if ln.Index != 5 || ln.Path != "body[5]" {
				t.Fatalf("error line misattributed: %+v", ln)
			}
			continue
		}
		if ln.Image == "" || !bytes.Contains(ln.Report, []byte("warnings")) {
			t.Fatalf("healthy line missing report: %+v", ln)
		}
	}
	if errLines != 1 {
		t.Fatalf("error lines = %d, want 1", errLines)
	}
	if summary == nil {
		t.Fatal("missing summary record")
	}
	if summary.Images != 6 || summary.Errors != 1 || summary.Shards != 2 || summary.PlanVersion != "v1" {
		t.Fatalf("summary = %+v", summary)
	}

	// Fleet metric families surface on the exposition.
	prom := rec.Snapshot().PromText()
	for _, want := range []string{
		"encore_fleet_images_total 6",
		"encore_fleet_batches_total 1",
		"encore_fleet_errors_total 1",
		"encore_fleet_shards 2",
	} {
		if !bytes.Contains([]byte(prom), []byte(want)) {
			t.Fatalf("/metrics missing %q:\n%s", want, prom)
		}
	}
}

// TestBatchScanNullMapEntries: a body line whose files, users or groups
// map holds a null entry used to decode to a nil pointer that panicked a
// fleet worker, taking the daemon down. Each such line must come back as
// that image's error record while the daemon keeps serving.
func TestBatchScanNullMapEntries(t *testing.T) {
	d, base := startDaemon(t, serve.Options{})
	if _, err := d.Registry().Register("mysql", "", buildPlan(t, "mysql", 30, 19), "test"); err != nil {
		t.Fatal(err)
	}
	victims, err := corpus.Training("mysql", 1, 123)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := json.Marshal(victims[0])
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.Write(healthy)
	for _, field := range []string{"files", "users", "groups"} {
		open := []byte(`"` + field + `":{`)
		body.WriteByte('\n')
		body.Write(bytes.Replace(healthy, open, append(open, `"null-entry":null,`...), 1))
	}
	body.WriteByte('\n')

	for round := 0; round < 2; round++ {
		status, lines, summary := postBatch(t, base+"/v1/scan/mysql/batch", body.Bytes())
		if status != http.StatusOK || summary == nil {
			t.Fatalf("round %d: status = %d, summary = %v", round, status, summary)
		}
		if len(lines) != 4 || summary.Images != 4 || summary.Errors != 3 {
			t.Fatalf("round %d: %d lines, summary %+v; want 4 lines, 3 errors", round, len(lines), summary)
		}
		for _, ln := range lines {
			if (ln.Index == 0) != (ln.Error == "") {
				t.Fatalf("round %d: line %+v misclassified", round, ln)
			}
			if ln.Index > 0 && !bytes.Contains([]byte(ln.Error), []byte(`["null-entry"] is null`)) {
				t.Fatalf("round %d: error line %+v does not name the null entry", round, ln)
			}
		}
	}
}

// TestBatchScanDirAndSynthetic covers the server-local directory mode and
// the synthetic fan-out mode, plus per-image alert provenance.
func TestBatchScanDirAndSynthetic(t *testing.T) {
	rec := telemetry.New()
	mem := &memNotifier{}
	pipe, err := alert.NewPipeline(alert.Options{Notifiers: []alert.Notifier{mem}, Rec: rec})
	if err != nil {
		t.Fatal(err)
	}
	d, base := startDaemon(t, serve.Options{Rec: rec, Alerts: pipe})
	if _, err := d.Registry().Register("mysql", "", buildPlan(t, "mysql", 30, 19), "test"); err != nil {
		t.Fatal(err)
	}

	victims, err := corpus.Training("mysql", 4, 321)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := sysimage.SaveDir(dir, victims); err != nil {
		t.Fatal(err)
	}

	status, lines, summary := postBatch(t, base+"/v1/scan/mysql/batch?dir="+dir, nil)
	if status != http.StatusOK || summary == nil {
		t.Fatalf("dir batch: status=%d summary=%v", status, summary)
	}
	if len(lines) != 4 || summary.Images != 4 || summary.Errors != 0 {
		t.Fatalf("dir batch shape: lines=%d summary=%+v", len(lines), summary)
	}

	status, lines, summary = postBatch(t, base+"/v1/scan/mysql/batch?dir="+dir+"&synthetic=25&shards=4", nil)
	if status != http.StatusOK || summary == nil {
		t.Fatalf("synthetic batch: status=%d", status)
	}
	if len(lines) != 25 || summary.Images != 25 {
		t.Fatalf("synthetic batch shape: lines=%d summary=%+v", len(lines), summary)
	}
	for _, ln := range lines {
		if ln.Error == "" && ln.Image == "" {
			t.Fatalf("synthetic line lacks image identity: %+v", ln)
		}
	}

	// Any findings published carry per-image provenance (request ID and
	// plan version); the alert pipeline drains asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for {
		recent := pipe.Recent(0)
		done := true
		for _, rcd := range recent {
			if rcd.RequestID == "" || rcd.PlanVersion != "v1" || rcd.App != "mysql" || rcd.ImageID == "" {
				t.Fatalf("batch alert lacks provenance: %+v", rcd.Alert)
			}
		}
		if done && len(recent) > 0 {
			break
		}
		if time.Now().After(deadline) {
			// A clean corpus can legitimately produce zero findings; don't
			// hang the test on it.
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Error paths: unknown app, bad synthetic count, empty batch.
	if status, _, _ := postBatch(t, base+"/v1/scan/nope/batch?dir="+dir, nil); status != http.StatusNotFound {
		t.Fatalf("unknown app status = %d", status)
	}
	if status, _, _ := postBatch(t, base+"/v1/scan/mysql/batch?dir="+dir+"&synthetic=zero", nil); status != http.StatusBadRequest {
		t.Fatalf("bad synthetic status = %d", status)
	}
	if status, _, _ := postBatch(t, base+"/v1/scan/mysql/batch", nil); status != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d", status)
	}
}
