// Package advise turns anomaly warnings into concrete remediation advice.
//
// The paper's conclusion names "assist[ing] the process of
// auto-configuration" as a natural application of the information EnCore
// integrates: a violated rule does not just say *that* something is wrong,
// its template says *what relation must be restored*, and the training
// histograms say *which values the fleet considers normal*. This package
// renders that into actionable suggestions — "chown /data/mysql to mysql",
// "lower upload_max_filesize below post_max_size (8M)", "create the
// missing directory /usr/lib/php/modules".
package advise

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/stats"
)

// Advice is one remediation suggestion derived from a warning.
type Advice struct {
	// Warning is the anomaly the advice addresses.
	Warning *detect.Warning
	// Action is the suggested remediation, phrased as an imperative.
	Action string
	// Confidence grades how mechanical the fix is: "high" for fixes fully
	// determined by the violated relation, "medium" for fixes that need a
	// human to choose among alternatives.
	Confidence string
}

// Advisor derives remediation advice using the training set's value
// distributions.
type Advisor struct {
	Training *dataset.Dataset
}

// New returns an advisor over a live training set.
func New(training *dataset.Dataset) *Advisor {
	return &Advisor{Training: training}
}

// ForReport derives advice for every warning in the report, in rank order.
// Warnings with no mechanical remediation are skipped.
func (a *Advisor) ForReport(r *detect.Report) []Advice {
	var out []Advice
	for _, w := range r.Warnings {
		if adv, ok := a.ForWarning(w); ok {
			out = append(out, adv)
		}
	}
	return out
}

// ForWarning derives advice for one warning; ok=false when no mechanical
// suggestion exists.
func (a *Advisor) ForWarning(w *detect.Warning) (Advice, bool) {
	switch w.Kind {
	case detect.KindName:
		return a.adviseName(w)
	case detect.KindCorrelation:
		return a.adviseCorrelation(w)
	case detect.KindType:
		return a.adviseType(w)
	case detect.KindSuspicious:
		return a.adviseSuspicious(w)
	default:
		return Advice{}, false
	}
}

func (a *Advisor) adviseName(w *detect.Warning) (Advice, bool) {
	// The detector embeds the nearest-name suggestion in the message.
	if i := strings.Index(w.Message, "did you mean "); i >= 0 {
		suggestion := strings.Trim(strings.TrimSuffix(w.Message[i+len("did you mean "):], "?)"), "\"")
		return Advice{
			Warning:    w,
			Action:     fmt.Sprintf("rename entry %s to %s", w.Attr, suggestion),
			Confidence: "high",
		}, true
	}
	return Advice{
		Warning:    w,
		Action:     fmt.Sprintf("remove or verify the unrecognized entry %s", w.Attr),
		Confidence: "medium",
	}, true
}

func (a *Advisor) adviseCorrelation(w *detect.Warning) (Advice, bool) {
	if w.Rule == nil {
		return Advice{}, false
	}
	r := w.Rule
	switch r.Template {
	case "owner":
		return Advice{
			Warning:    w,
			Action:     fmt.Sprintf("chown the path in %s to the user configured in %s", r.AttrA, r.AttrB),
			Confidence: "high",
		}, true
	case "eq", "match-one":
		return Advice{
			Warning:    w,
			Action:     fmt.Sprintf("make %s agree with %s (they name the same object on healthy systems)", r.AttrA, r.AttrB),
			Confidence: "high",
		}, true
	case "size-lt", "num-lt":
		return Advice{
			Warning:    w,
			Action:     fmt.Sprintf("lower %s below %s (or raise the latter)", r.AttrA, r.AttrB),
			Confidence: "high",
		}, true
	case "concat":
		return Advice{
			Warning:    w,
			Action:     fmt.Sprintf("install the file named by %s under the root in %s, or fix the relative path", r.AttrB, r.AttrA),
			Confidence: "medium",
		}, true
	case "user-group":
		return Advice{
			Warning:    w,
			Action:     fmt.Sprintf("add the user in %s to the group in %s", r.AttrA, r.AttrB),
			Confidence: "high",
		}, true
	case "not-access":
		return Advice{
			Warning:    w,
			Action:     fmt.Sprintf("tighten permissions so the path in %s is not accessible to the user in %s", r.AttrA, r.AttrB),
			Confidence: "high",
		}, true
	case "subnet":
		return Advice{
			Warning:    w,
			Action:     fmt.Sprintf("move the address in %s into the subnet of %s", r.AttrA, r.AttrB),
			Confidence: "medium",
		}, true
	case "bool-implies":
		return Advice{
			Warning:    w,
			Action:     fmt.Sprintf("review the interaction between %s and %s (enabled together on healthy systems)", r.AttrA, r.AttrB),
			Confidence: "medium",
		}, true
	default:
		return Advice{
			Warning:    w,
			Action:     fmt.Sprintf("restore the relation %s between %s and %s", r.Spec, r.AttrA, r.AttrB),
			Confidence: "medium",
		}, true
	}
}

func (a *Advisor) adviseType(w *detect.Warning) (Advice, bool) {
	action := fmt.Sprintf("value %q does not verify as the expected type; ", w.Value)
	if strings.Contains(w.Message, "semantic verification") {
		action += fmt.Sprintf("create the missing object or point %s at an existing one", w.Attr)
	} else {
		action += fmt.Sprintf("rewrite %s in the expected format", w.Attr)
	}
	if common, ok := a.commonValue(w.Attr); ok {
		action += fmt.Sprintf(" (most systems use %q)", common)
	}
	return Advice{Warning: w, Action: action, Confidence: "medium"}, true
}

func (a *Advisor) adviseSuspicious(w *detect.Warning) (Advice, bool) {
	common, ok := a.commonValue(w.Attr)
	if !ok {
		return Advice{}, false
	}
	hist := a.histogram(w.Attr)
	if len(hist) == 1 {
		return Advice{
			Warning:    w,
			Action:     fmt.Sprintf("every healthy system sets %s to %q; restore it unless the deviation is intentional", w.Attr, common),
			Confidence: "high",
		}, true
	}
	alternatives := make([]string, 0, len(hist))
	for v := range hist {
		alternatives = append(alternatives, v)
	}
	sort.Strings(alternatives)
	const maxShown = 4
	if len(alternatives) > maxShown {
		alternatives = alternatives[:maxShown]
	}
	return Advice{
		Warning:    w,
		Action:     fmt.Sprintf("healthy systems set %s to one of %s", w.Attr, strings.Join(quoteAll(alternatives), ", ")),
		Confidence: "medium",
	}, true
}

// histogram returns the attribute's value counts across the training set.
func (a *Advisor) histogram(attr string) map[string]int {
	return a.Training.Histogram(attr)
}

// commonValue returns the most frequent training value of the attribute.
func (a *Advisor) commonValue(attr string) (string, bool) {
	hist := a.histogram(attr)
	if len(hist) == 0 {
		return "", false
	}
	var values []string
	for v, c := range hist {
		for i := 0; i < c; i++ {
			values = append(values, v)
		}
	}
	v, _, ok := stats.MajorityValue(values)
	return v, ok
}

func quoteAll(vs []string) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf("%q", v)
	}
	return out
}

// Render formats advice as a numbered list.
func Render(advice []Advice) string {
	var b strings.Builder
	for i, adv := range advice {
		fmt.Fprintf(&b, "%2d. [%s confidence] %s\n", i+1, adv.Confidence, adv.Action)
	}
	return b.String()
}
