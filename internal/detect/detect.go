// Package detect implements EnCore's anomaly detector (Section 6): given
// the rules and types learned from a training set, it checks a target
// system for four classes of anomalies and produces a ranked warning list.
//
//  1. Entry-name violations — entries never seen in training (likely
//     misspellings, with a nearest-name suggestion).
//  2. Correlation violations — learned rules whose relation does not hold
//     on the target.
//  3. Data-type violations — values failing the syntactic match or the
//     semantic verification of the entry's learned type.
//  4. Suspicious values — values never seen in training, ranked by inverse
//     change frequency so deviations on historically stable entries rank
//     highest.
package detect

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/assemble"
	"repro/internal/conftypes"
	"repro/internal/dataset"
	"repro/internal/rules"
	"repro/internal/stats"
	"repro/internal/sysimage"
	"repro/internal/templates"
)

// Kind classifies a warning.
type Kind string

// Warning kinds, in the order Section 6 describes the checks.
const (
	KindName        Kind = "entry-name"
	KindCorrelation Kind = "correlation"
	KindType        Kind = "data-type"
	KindSuspicious  Kind = "suspicious-value"
)

// Warning is one detected anomaly.
type Warning struct {
	Kind    Kind
	Attr    string
	Value   string
	Message string
	// Rule is set for correlation violations.
	Rule *rules.Rule
	// Score orders the report; higher is more severe.
	Score float64
	// Rank is the 1-based position in the final report.
	Rank int

	// ruleText is Rule.String(), formatted once per rule when a plan is
	// built; see RuleText.
	ruleText string
}

// RuleText renders the violated rule for reports and alerts ("" when the
// warning has no rule). A plan's warnings carry the text formatted when
// the plan was built; a warning built elsewhere formats it here.
func (w *Warning) RuleText() string {
	if w.ruleText != "" || w.Rule == nil {
		return w.ruleText
	}
	return w.Rule.String()
}

// Report is the ranked output of one check.
type Report struct {
	SystemID string
	Warnings []*Warning
}

// Top returns the highest-ranked warning, or nil.
func (r *Report) Top() *Warning {
	if len(r.Warnings) == 0 {
		return nil
	}
	return r.Warnings[0]
}

// RankOf returns the rank of the first warning satisfying pred, or 0.
func (r *Report) RankOf(pred func(*Warning) bool) int {
	for _, w := range r.Warnings {
		if pred(w) {
			return w.Rank
		}
	}
	return 0
}

// Detector is the reference implementation of the four checks: it
// assembles each target into a fresh one-row dataset and reads the live
// training set per call. Production checks run through a compiled Plan
// (see Compile); the equivalence tests hold Plan.Check to this Check's
// reports.
type Detector struct {
	Training  *dataset.Dataset
	Rules     []*rules.Rule
	Templates []*templates.Template
	Assembler *assemble.Assembler

	// SuspiciousValueLimit caps suspicious-value warnings per report to
	// keep reports reviewable (0 = no cap).
	SuspiciousValueLimit int
}

// New returns a detector over the training dataset and learned rules,
// using the predefined templates and a fresh default assembler.
func New(training *dataset.Dataset, learned []*rules.Rule) *Detector {
	return &Detector{
		Training:  training,
		Rules:     learned,
		Templates: templates.Predefined(),
		Assembler: assemble.New(),
	}
}

func (dt *Detector) template(id string) *templates.Template {
	return findTemplate(dt.Templates, id)
}

// Check assembles the target image and runs all four anomaly checks,
// returning a ranked report.
func (dt *Detector) Check(img *sysimage.Image) (*Report, error) {
	target, err := dt.Assembler.AssembleTarget(img, dt.Training)
	if err != nil {
		return nil, err
	}
	row := target.Rows()[0]
	ctx := &templates.Ctx{Row: row, Image: img}

	var warnings []*Warning
	warnings = append(warnings, dt.checkNames(target, row)...)
	warnings = append(warnings, dt.checkCorrelations(ctx)...)
	warnings = append(warnings, dt.checkTypes(row, img)...)
	warnings = append(warnings, dt.checkSuspiciousValues(row)...)

	slices.SortStableFunc(warnings, reportOrder)
	for i, w := range warnings {
		w.Rank = i + 1
	}
	return &Report{SystemID: img.ID, Warnings: warnings}, nil
}

// trainingHas reports whether the attribute was observed (with a value) in
// the training set.
func (dt *Detector) trainingHas(attr string) bool {
	return dt.Training.Present(attr) > 0
}

// histogram returns the attribute's value counts across all training
// instances.
func (dt *Detector) histogram(attr string) map[string]int {
	return stats.Histogram(dt.Training.Column(attr))
}

// checkNames flags configured entries whose names never occur in training.
func (dt *Detector) checkNames(target *dataset.Dataset, row *dataset.Row) []*Warning {
	var out []*Warning
	row.Each(func(attr string, _ []string) {
		a, declared := dt.Training.Attr(attr)
		if a.Augmented {
			return
		}
		// Augmented attributes derived from an unseen entry are noise:
		// the unseen entry itself is the warning.
		if ta, ok := target.Attr(attr); ok && ta.Augmented {
			return
		}
		if declared && dt.trainingHas(attr) {
			return
		}
		if isEnvAttr(attr) {
			return
		}
		msg := fmt.Sprintf("entry %q was never seen in the training set", attr)
		score := 20.0
		if near := dt.nearestTrainingAttr(attr); near != "" {
			msg += fmt.Sprintf(" (did you mean %q?)", near)
			score = 35.0 // probable misspelling is a strong signal
		}
		out = append(out, &Warning{Kind: KindName, Attr: attr, Message: msg, Score: score})
	})
	return out
}

// isEnvAttr reports whether an attribute is a Table 5b environment
// attribute rather than a configuration entry.
func isEnvAttr(attr string) bool {
	return !strings.Contains(attr, ":")
}

// nearestTrainingAttr returns a training attribute within edit distance 2
// of attr, or "".
func (dt *Detector) nearestTrainingAttr(attr string) string {
	best, bestDist := "", 3
	for _, a := range dt.Training.Attributes() {
		if a.Augmented || a.Name == attr {
			continue
		}
		if d := editDistance(attr, a.Name, bestDist); d < bestDist {
			best, bestDist = a.Name, d
		}
	}
	return best
}

// checkCorrelations evaluates every learned rule whose attributes are both
// present on the target.
func (dt *Detector) checkCorrelations(ctx *templates.Ctx) []*Warning {
	var out []*Warning
	for _, r := range dt.Rules {
		tpl := dt.template(r.Template)
		if tpl == nil {
			continue
		}
		va := ctx.Row.Instances(r.AttrA)
		vb := ctx.Row.Instances(r.AttrB)
		if len(va) == 0 || len(vb) == 0 {
			continue // absent entries: rule is ignored (Section 6)
		}
		holds, applicable := tpl.Validate(va, vb, ctx)
		if !applicable || holds {
			continue
		}
		out = append(out, &Warning{
			Kind:  KindCorrelation,
			Attr:  r.AttrA,
			Value: strings.Join(va, ";"),
			Rule:  r,
			Message: fmt.Sprintf("correlation %s violated: %s=%q vs %s=%q",
				r.Spec, r.AttrA, strings.Join(va, ";"), r.AttrB, strings.Join(vb, ";")),
			Score:    40 + 20*r.Confidence,
			ruleText: r.String(),
		})
	}
	return out
}

// checkTypes verifies each target value against the type learned in
// training.
func (dt *Detector) checkTypes(row *dataset.Row, img *sysimage.Image) []*Warning {
	var out []*Warning
	row.Each(func(attr string, values []string) {
		a, ok := dt.Training.Attr(attr)
		if !ok || a.Augmented || a.Type.IsTrivial() || !dt.trainingHas(attr) {
			return
		}
		for _, v := range values {
			if conftypes.LooksLikeRegexOrGlob(v) {
				continue
			}
			syn, sem := dt.Assembler.Inferencer.CheckValue(a.Type, v, img)
			if syn && sem {
				continue
			}
			card := len(dt.histogram(attr))
			score := 50.0
			if card == 1 {
				// Every training system agreed on this aspect: strongest
				// possible signal (the extension_dir case of Figure 1a).
				score = 90
			} else if card > 1 {
				score = 50 + 30/float64(card)
			}
			step := "semantic verification"
			if !syn {
				step = "syntactic match"
			}
			out = append(out, &Warning{
				Kind:  KindType,
				Attr:  attr,
				Value: v,
				Message: fmt.Sprintf("value %q of %s fails %s for type %s",
					v, attr, step, a.Type),
				Score: score,
			})
		}
	})
	return out
}

// checkSuspiciousValues flags values never seen in training, ranked by
// inverse change frequency.
func (dt *Detector) checkSuspiciousValues(row *dataset.Row) []*Warning {
	samples := len(dt.Training.Rows())
	var out []*Warning
	row.Each(func(attr string, values []string) {
		// Augmented attributes participate: deviations in environment
		// facts (extension_dir.type = file where training only ever saw
		// dir) are precisely the Env detections of the paper.
		a, ok := dt.Training.Attr(attr)
		if !ok || !dt.trainingHas(attr) {
			return
		}
		seen := dt.histogram(attr)
		card := len(seen)
		// Attributes that are unique (or nearly so) per system — host
		// names, addresses — carry no peer signal; a fresh value there is
		// expected, not suspicious.
		if card*2 >= samples {
			return
		}
		for _, v := range values {
			if seen[v] > 0 {
				continue
			}
			icf := stats.ICF(card, samples)
			score := 5 * icf
			if card == 1 {
				// Every training system agreed on this value; a deviation
				// is ranked far above ordinary unseen values.
				score = 70
				if a.Augmented {
					score = 75 // environment fact contradicting all peers
				}
			}
			out = append(out, &Warning{
				Kind:  KindSuspicious,
				Attr:  attr,
				Value: v,
				Message: fmt.Sprintf("value %q of %s never appeared in %d training systems (%d distinct values seen)",
					v, attr, samples, card),
				Score: score,
			})
		}
	})
	// Sorting by the report's own key before the cut keeps the same
	// warnings whatever order the cells were visited in.
	slices.SortStableFunc(out, reportOrder)
	if dt.SuspiciousValueLimit > 0 && len(out) > dt.SuspiciousValueLimit {
		out = out[:dt.SuspiciousValueLimit]
	}
	return out
}

// reportOrder is the report's warning order — score descending, then
// attribute — for slices.SortStableFunc, which, like sort.SliceStable,
// only asks whether a comparison is negative; a stable sort keeps one
// attribute's values in instance order. Suspicious-value warnings are
// sorted by it before SuspiciousValueLimit cuts them, so the cut never
// depends on map order and untruncated reports come out as before.
func reportOrder(a, b *Warning) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	return strings.Compare(a.Attr, b.Attr)
}

// editDistance computes Levenshtein distance with early exit once the
// distance is known to reach bound.
func editDistance(a, b string, bound int) int {
	if abs(len(a)-len(b)) >= bound {
		return bound
	}
	buf := make([]int, 2*(len(b)+1))
	return editDistanceInto(a, b, bound, buf[:len(b)+1], buf[len(b)+1:])
}

// editDistanceInto is editDistance's DP body over caller-provided rows
// (len(b)+1 each), so hot paths can reuse buffers across calls.
func editDistanceInto(a, b string, bound int, prev, cur []int) int {
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		if rowMin >= bound {
			return bound
		}
		prev, cur = cur, prev
	}
	if prev[len(b)] > bound {
		return bound
	}
	return prev[len(b)]
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func min3(a, b, c int) int {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}
