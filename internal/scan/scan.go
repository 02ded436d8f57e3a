// Package scan holds the per-image step every scan path runs and the
// types scan outcomes are reported in.
//
// The detection phase of the paper checks each target image on its own
// against the learned rules, so a production scanner can make every image
// its own fault domain: one malformed image out of thousands must not
// abort the batch, and a panic while checking one image must not take the
// process down with it. Step is that per-image sequence — check, error
// record, one alert per warning — shared by the fleet coordinator
// (internal/fleet, the one batch engine) and the daemon's single-scan
// handler. Item, ScanError, Result and Summary carry its outcomes.
package scan

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/alert"
	"repro/internal/detect"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// CheckFunc checks one target image against previously learned knowledge;
// detect.Plan.Check is the production one.
type CheckFunc func(img *sysimage.Image) (*detect.Report, error)

// Step is the per-image sequence of every scan path: check one image, turn
// a returned error or a panic into the image's ScanError, and publish one
// alert per warning of a healthy report. A Step is read-only once built,
// so one value serves every worker of a batch.
type Step struct {
	// Check produces the report for one image. Required.
	Check CheckFunc
	// Alerting, when set, receives every warning of a healthy report. It
	// sits behind its own pointer so the provenance strings Run hands to
	// the pipeline share no pointer with Check: a method value such as
	// plan.Check then stays on its caller's stack.
	Alerting *Alerting
}

// Alerting is an alert pipeline plus the provenance stamped on every
// alert a scan publishes into it.
type Alerting struct {
	// Pipeline receives one severity-classified alert per warning; nil
	// publishes nothing. Publishing never blocks: a full queue drops and
	// counts.
	Pipeline *alert.Pipeline
	// App is the application label (the daemon's registry app); empty
	// derives it per warning through AlertApp.
	App string
	// RequestID correlates the alerts of one request or batch, and
	// PlanVersion names the knowledge they were checked against.
	RequestID, PlanVersion string
}

// Run checks img. elapsed runs from start to the check's return, before
// any alert is published, and sp (nil-safe) ends at the same point, so a
// caller that loaded the image first can pass the load's start and
// neither figure counts alert publishing. A failed item's ScanError
// carries the image ID; naming its source Path is the caller's job.
func (s *Step) Run(img *sysimage.Image, start time.Time, sp *telemetry.Span) (it Item, elapsed time.Duration) {
	it, elapsed = s.check(img, start)
	sp.End()
	if a := s.Alerting; it.Err == nil && a != nil && a.Pipeline != nil {
		for _, w := range it.Report.Warnings {
			app := a.App
			if app == "" {
				app = AlertApp(w.Attr)
			}
			a.Pipeline.Publish(alert.FromWarning(w, app, it.ImageID, a.RequestID, a.PlanVersion))
		}
	}
	return it, elapsed
}

// check runs Check and recovers a panic into the image's ScanError: no
// caller above a fleet worker goroutine recovers, so an unrecovered panic
// would end the process. Plan.Check releases its pooled scratch only on
// return, so a panicking check drops that scratch rather than handing a
// half-written one back to the pool.
func (s *Step) check(img *sysimage.Image, start time.Time) (it Item, elapsed time.Duration) {
	defer func() {
		if r := recover(); r != nil {
			elapsed = time.Since(start)
			it = Item{ImageID: img.ID, Err: &ScanError{ImageID: img.ID, Err: fmt.Errorf("panic: %v", r)}}
		}
	}()
	report, err := s.Check(img)
	elapsed = time.Since(start)
	if err != nil {
		return Item{ImageID: img.ID, Err: &ScanError{ImageID: img.ID, Err: err}}, elapsed
	}
	return Item{ImageID: img.ID, Report: report}, elapsed
}

// AlertApp derives an alert's app routing key from a flagged attribute:
// config attributes are named "app:Entry" (the assembler's canonical
// column names); environment attributes ("Sys.HostName", "OS.Version")
// fall under "system".
func AlertApp(attr string) string {
	if app, _, ok := strings.Cut(attr, ":"); ok {
		return app
	}
	return "system"
}

// ScanError is the per-image failure record of a scan.
type ScanError struct {
	// ImageID is the failing image's ID ("" when the image could not even
	// be decoded).
	ImageID string
	// Path names the image's source (a file path, a request body line).
	Path string
	// Err is the underlying assembly/check/decode error.
	Err error
}

// Error renders the failure with its image context.
func (e *ScanError) Error() string {
	switch {
	case e.ImageID != "":
		return fmt.Sprintf("scan: image %s: %v", e.ImageID, e.Err)
	case e.Path != "":
		return fmt.Sprintf("scan: %s: %v", e.Path, e.Err)
	default:
		return fmt.Sprintf("scan: %v", e.Err)
	}
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *ScanError) Unwrap() error { return e.Err }

// Item is the outcome for one input image, in input order. Exactly one of
// Report and Err is set.
type Item struct {
	// ImageID identifies the image ("" if it could not be decoded).
	ImageID string
	// Report is the check result for a healthy image.
	Report *detect.Report
	// Err records why this image produced no report.
	Err *ScanError
}

// Result is the outcome of one batch scan.
type Result struct {
	// Items holds one entry per input image, in input order.
	Items []Item
}

// AttrCount is one attribute with its fleet-wide warning count.
type AttrCount struct {
	Attr  string
	Count int
}

// Summary aggregates a batch scan fleet-wide, item by item (Observe, then
// Finish), so a sink can summarize a 100k-image walk without retaining
// its items.
type Summary struct {
	// Scanned counts all input images, healthy or not.
	Scanned int
	// Flagged counts images with at least minWarnings warnings.
	Flagged int
	// Warnings is the total warning count across healthy images.
	Warnings int
	// Errors counts images that failed to scan.
	Errors int
	// ByKind tallies warnings per kind across the fleet.
	ByKind map[detect.Kind]int
	// HotAttrs ranks attributes by how often they were flagged
	// (descending count, ties by name). Populated by Finish.
	HotAttrs []AttrCount

	// attrCounts accumulates per-attribute tallies until Finish ranks them.
	attrCounts map[string]int
}

// Observe folds one item into the summary; minWarnings is the flagging
// floor for the Flagged count. Call Finish once all items are observed.
// Observe is not safe for concurrent use — concurrent sinks must lock.
func (s *Summary) Observe(it Item, minWarnings int) {
	if s.ByKind == nil {
		s.ByKind = map[detect.Kind]int{}
	}
	if s.attrCounts == nil {
		s.attrCounts = map[string]int{}
	}
	s.Scanned++
	if it.Err != nil {
		s.Errors++
		return
	}
	s.Warnings += len(it.Report.Warnings)
	for _, w := range it.Report.Warnings {
		s.ByKind[w.Kind]++
		s.attrCounts[w.Attr]++
	}
	if len(it.Report.Warnings) >= minWarnings {
		s.Flagged++
	}
}

// Finish ranks the accumulated attribute tallies into HotAttrs.
func (s *Summary) Finish() {
	s.HotAttrs = s.HotAttrs[:0]
	for attr, n := range s.attrCounts {
		s.HotAttrs = append(s.HotAttrs, AttrCount{Attr: attr, Count: n})
	}
	sort.Slice(s.HotAttrs, func(i, j int) bool {
		if s.HotAttrs[i].Count != s.HotAttrs[j].Count {
			return s.HotAttrs[i].Count > s.HotAttrs[j].Count
		}
		return s.HotAttrs[i].Attr < s.HotAttrs[j].Attr
	})
}
