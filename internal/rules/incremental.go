// Incremental rule inference: InferWithState captures per-candidate
// evaluation tallies during a full run, and InferDelta revalidates only the
// candidates whose evidence a row delta could have changed.
//
// The key observation is that every filter decision is a pure function of
// four numbers — total rows, support, applicable, valid — plus the two
// memoized column entropies. All four counts are sums over rows, so a
// batch of added or retired rows adjusts them in O(Δrows) per candidate
// (and the support adjustment alone decides most candidates, since the
// pruned majority never needs a Validate call). A candidate is re-swept
// from scratch only when (a) it is new or its attributes' types changed,
// so the cached tally does not exist or cannot be trusted, or (b) it was
// support-pruned before — its applicable/valid counts were never computed
// — and the adjusted support would now clear the threshold.
//
// Correctness rests on two invariants: template validation is a pure
// function of the row and its image, so a retired row's contribution can
// be subtracted by re-validating it; and the dataset's columnar index is
// maintained by the same deltas (dataset.AddRows/RetireRows), so support
// and entropy reads agree with a from-scratch rebuild bit for bit. Infer
// remains the oracle; the randomized add/retire property test enforces
// InferDelta ≡ Infer on both the rule list and LastStats.
package rules

import (
	"slices"
	"strconv"

	"repro/internal/conftypes"
	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
	"repro/internal/templates"
)

// candKey identifies a candidate across inference runs.
type candKey struct {
	tpl   string
	attrA string
	attrB string
}

// candTally is the raw evidence for one candidate. validated reports that
// the validation sweep ran, i.e. applicable and valid are meaningful; a
// support-pruned candidate carries only its support count.
type candTally struct {
	support    int
	applicable int
	valid      int
	validated  bool
}

// capturedCand pairs a candidate's key with its tally for state capture.
type capturedCand struct {
	key   candKey
	tally candTally
}

// InferState carries per-candidate evidence between inference runs so that
// InferDelta can update it instead of re-sweeping the corpus. Populate it
// with InferWithState; a zero-value state is valid and simply forces the
// first InferDelta to evaluate every candidate.
//
// The state is owned by one inference sequence: it must only be advanced
// by the same engine, with deltas that exactly describe the dataset's
// mutations since the state was captured.
type InferState struct {
	// total is the row count the tallies were computed against.
	total int
	// tallies maps each enumerated candidate to its evidence.
	tallies map[candKey]candTally
	// types snapshots each attribute's semantic type at capture time;
	// candidates over attributes whose type has since changed (SetType, or
	// a newly declared attribute) are re-evaluated from scratch because
	// type changes reshape the eligible candidate set.
	types map[string]conftypes.Type
}

// Candidates reports the number of candidates tracked by the state.
func (st *InferState) Candidates() int { return len(st.tallies) }

// InferWithState runs a full inference exactly like Infer and additionally
// captures every candidate's evaluation tally into st, priming it for
// subsequent InferDelta calls.
func (e *Engine) InferWithState(d *dataset.Dataset, images map[string]*sysimage.Image, st *InferState) []*Rule {
	rules, cands := e.infer(d, images, true)
	st.total = len(d.Rows)
	st.tallies = make(map[candKey]candTally, len(cands))
	for _, cc := range cands {
		st.tallies[cc.key] = cc.tally
	}
	st.types = snapshotTypes(d)
	return rules
}

// InferDelta re-infers the rule set after a row delta, reusing st's
// per-candidate tallies: each cached candidate is adjusted by the added
// and retired rows in O(Δrows) and re-classified against the current
// thresholds; only new, type-shifted, or newly-support-eligible candidates
// pay a full validation sweep. The result — rules and LastStats alike — is
// identical to a from-scratch Infer over the current dataset.
//
// added and retired are the rows the dataset gained and lost since st was
// last advanced (they must be disjoint; pass one batch per mutation).
// images must still map every retired row's system ID to its image at call
// time — validation of a retired row must see the same environment it saw
// when the row was counted in, so retire from the image map only after
// InferDelta returns. st is advanced in place. If st does not match the
// pre-delta dataset (wrong row count, never primed), every candidate is
// evaluated from scratch — the call degrades to Infer, never to a wrong
// answer.
func (e *Engine) InferDelta(d *dataset.Dataset, images map[string]*sysimage.Image, st *InferState, added, retired []*dataset.Row) []*Rule {
	defer e.Telemetry.StartStage(telemetry.StageRulesInfer)()
	ix := d.Index()
	ctxs := e.contexts(d, images)
	total := len(ctxs)

	stale := st.tallies == nil || st.total != total-len(added)+len(retired)
	curTypes := snapshotTypes(d)
	changed := make(map[string]bool)
	for name, t := range curTypes {
		if old, ok := st.types[name]; !ok || old != t {
			changed[name] = true
		}
	}

	root := e.Telemetry.StartSpan("rules.infer.delta",
		telemetry.A("added", strconv.Itoa(len(added))),
		telemetry.A("retired", strconv.Itoa(len(retired))),
		telemetry.A("stale", strconv.FormatBool(stale)))
	defer root.End()

	addedCtxs := rowContexts(added, images)
	retiredCtxs := rowContexts(retired, images)
	// Meaning columns are built only for the candidates that need a full
	// sweep.
	mt := newMeaningTable(ix)
	newTallies := make(map[candKey]candTally, len(st.tallies))
	var tally inferTally
	candidates, reused, revalidated := 0, 0, 0
	e.forEachCandidate(d, nil, func(c candidate) {
		candidates++
		key := candKey{tpl: c.tpl.ID, attrA: c.attrA, attrB: c.attrB}
		var r *Rule
		var reason rejectReason
		var ct candTally
		old, ok := st.tallies[key]
		if stale || !ok || changed[c.attrA] || changed[c.attrB] {
			r, reason, ct = e.evaluateCandidate(ix, ctxs, mt.resolve(c))
			revalidated++
		} else {
			ct = old
			for i := range addedCtxs {
				applyRowDelta(&ct, c, &addedCtxs[i], +1)
			}
			for i := range retiredCtxs {
				applyRowDelta(&ct, c, &retiredCtxs[i], -1)
			}
			if !ct.validated && ct.support > 0 &&
				stats.SupportFraction(ct.support, total) >= e.Config.MinSupportFraction {
				// Previously support-pruned, now above threshold: the
				// applicable/valid counts were never computed, so this
				// candidate needs its first full sweep.
				r, reason, ct = e.evaluateCandidate(ix, ctxs, mt.resolve(c))
				revalidated++
			} else {
				r, reason = e.classify(ix, c, total, ct)
				reused++
			}
		}
		tally.record(r, reason)
		if !ct.validated {
			tally.prunedSupport++
		}
		newTallies[key] = ct
	})

	st.total, st.tallies, st.types = total, newTallies, curTypes

	tally.stats.Candidates = candidates
	e.LastStats = tally.stats
	e.Telemetry.Add(telemetry.CounterRulesValidated, int64(candidates))
	e.Telemetry.Add(telemetry.CounterRulesKept, int64(tally.stats.Kept))
	e.Telemetry.Add(telemetry.CounterRulesPrunedSupport, tally.prunedSupport)
	e.Telemetry.Add(telemetry.CounterRulesPrunedEntropy, int64(tally.stats.EntropyRejected))
	e.Telemetry.Add(telemetry.CounterRulesDeltaReused, int64(reused))
	e.Telemetry.Add(telemetry.CounterRulesDeltaRevalidated, int64(revalidated))
	root.Logger(e.Log).Debug("incremental rule inference done",
		"candidates", candidates, "kept", tally.stats.Kept,
		"reused", reused, "revalidated", revalidated)
	slices.SortFunc(tally.rules, compareKeys)
	return tally.rules
}

// rowContexts builds the evaluation contexts of a delta's rows.
func rowContexts(rows []*dataset.Row, images map[string]*sysimage.Image) []templates.Ctx {
	ctxs := make([]templates.Ctx, len(rows))
	for i, row := range rows {
		ctxs[i] = templates.Ctx{Row: row, Image: images[row.SystemID]}
	}
	return ctxs
}

// applyRowDelta folds one row into (sign +1) or out of (sign -1) a
// candidate's tally. Support moves whenever both attributes are present;
// applicable/valid move only for tallies whose sweep ran — a pruned tally
// maintains support alone, which is all its classification reads.
func applyRowDelta(ct *candTally, c candidate, ctx *templates.Ctx, sign int) {
	va := ctx.Row.Instances(c.attrA)
	vb := ctx.Row.Instances(c.attrB)
	if len(va) == 0 || len(vb) == 0 {
		return
	}
	ct.support += sign
	if !ct.validated {
		return
	}
	holds, app := c.tpl.Validate(va, vb, ctx)
	if !app {
		return
	}
	ct.applicable += sign
	if holds {
		ct.valid += sign
	}
}

// classify derives a candidate's outcome from its tally without a sweep —
// the same filter chain evaluateCandidate applies, fed by maintained
// counts and the index's memoized entropies.
func (e *Engine) classify(ix *dataset.Index, c candidate, total int, ct candTally) (*Rule, rejectReason) {
	if total == 0 || ct.support == 0 {
		return nil, noEvidence
	}
	if stats.SupportFraction(ct.support, total) < e.Config.MinSupportFraction {
		return nil, supportRejected
	}
	return e.finish(c, total, ct.support, ct.applicable, ct.valid, ix.Entropy(c.attrA), ix.Entropy(c.attrB))
}

// snapshotTypes records each attribute's current semantic type.
func snapshotTypes(d *dataset.Dataset) map[string]conftypes.Type {
	types := make(map[string]conftypes.Type, len(d.Attributes()))
	for _, a := range d.Attributes() {
		types[a.Name] = a.Type
	}
	return types
}
