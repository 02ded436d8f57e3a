package rules

// The serial oracle: single-threaded, index-free inference that calls
// Validate on every row, kept beside the tests that hold Infer,
// InferWithState and InferDelta to it.

import (
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/assemble"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
	"repro/internal/templates"
)

// InferSerial is the single-threaded, index-free reference implementation:
// the oracle for the parallelism and columnar-index equivalence tests, and
// the baseline of the indexed-inference benchmark. It validates every
// candidate against every system with plain row lookups and applies the
// same filters in the same order as the indexed path.
func (e *Engine) InferSerial(d *dataset.Dataset, images map[string]*sysimage.Image) []*Rule {
	defer e.Telemetry.StartStage(telemetry.StageRulesInfer)()
	root := e.Telemetry.StartSpan("rules.infer",
		telemetry.A("templates", strconv.Itoa(len(e.Templates))),
		telemetry.A("workers", "1"))
	defer root.End()
	timed := e.Telemetry != nil
	ctxs := e.contexts(d, images)
	var tally inferTally
	var local telemetry.Histogram
	candidates := 0
	e.forEachCandidate(d, nil, func(c candidate) {
		candidates++
		var start time.Time
		if timed {
			start = time.Now()
		}
		tally.record(e.evaluateSerial(d, ctxs, c))
		if timed {
			local.Observe(time.Since(start))
		}
	})
	e.Telemetry.MergeHistogram(telemetry.HistRuleValidate, &local)
	tally.stats.Candidates = candidates
	e.LastStats = tally.stats
	e.Telemetry.Add(telemetry.CounterRulesValidated, int64(candidates))
	e.Telemetry.Add(telemetry.CounterRulesKept, int64(tally.stats.Kept))
	slices.SortFunc(tally.rules, compareKeys)
	return tally.rules
}

// evaluateSerial validates one candidate with plain per-row lookups and no
// index — the reference the indexed path is tested against. The dataset's
// memoized entropy is shared with the indexed path so both report
// bit-identical rule statistics.
func (e *Engine) evaluateSerial(d *dataset.Dataset, ctxs []templates.Ctx, c candidate) (*Rule, rejectReason) {
	total := len(ctxs)
	support, applicable, valid := 0, 0, 0
	for i := range ctxs {
		ctx := &ctxs[i]
		va := ctx.Row.Instances(c.attrA)
		vb := ctx.Row.Instances(c.attrB)
		if len(va) == 0 || len(vb) == 0 {
			continue
		}
		support++
		holds, app := c.tpl.Validate(va, vb, ctx)
		if !app {
			continue
		}
		applicable++
		if holds {
			valid++
		}
	}
	if total == 0 || support == 0 {
		return nil, noEvidence
	}
	if stats.SupportFraction(support, total) < e.Config.MinSupportFraction {
		return nil, supportRejected
	}
	return e.finish(c, total, support, applicable, valid, d.Entropy(c.attrA), d.Entropy(c.attrB))
}

// BenchmarkRuleInferenceSerial records the serial oracle on the apache/60
// corpus, the baseline BenchmarkRuleInferenceParallel and
// BenchmarkRuleInferenceIndexed compare against.
func BenchmarkRuleInferenceSerial(b *testing.B) {
	images, err := corpus.Training("apache", 60, 1)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := assemble.New().AssembleTraining(images)
	if err != nil {
		b.Fatal(err)
	}
	byID := corpus.ByID(images)
	eng := NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.InferSerial(ds, byID)
	}
}
