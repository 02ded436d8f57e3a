package eval

import (
	"fmt"
	"strings"

	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/rules"
	"repro/internal/sysimage"
)

// ---- Table 9 ----

// Table9Row is the detection result for one real-world case.
type Table9Row struct {
	Case     corpus.Case
	Detected bool
	Rank     int
	Total    int
}

// Table9 reproduces the real-world case study: each of the ten
// reconstructed cases is checked against the knowledge learned for its
// application.
func Table9(seed int64) ([]Table9Row, error) {
	plans, err := planAll(seed)
	if err != nil {
		return nil, err
	}
	var rows []Table9Row
	for _, c := range corpus.RealWorldCases() {
		report, err := plans[c.App].Check(c.Build())
		if err != nil {
			return nil, err
		}
		row := Table9Row{Case: c, Total: len(report.Warnings)}
		row.Rank = report.RankOf(func(w *detect.Warning) bool {
			return attrRefers(w.Attr, c.MatchAttr)
		})
		row.Detected = row.Rank > 0
		rows = append(rows, row)
	}
	return rows, nil
}

// attrRefers reports whether attr names base or one of its derived
// (augmented / argument) attributes.
func attrRefers(attr, base string) bool {
	if attr == base {
		return true
	}
	if strings.HasPrefix(attr, base) && len(attr) > len(base) {
		switch attr[len(base)] {
		case '.', '/':
			return true
		}
	}
	return false
}

// RenderTable9 prints Table 9.
func RenderTable9(rows []Table9Row) string {
	var b strings.Builder
	b.WriteString("Table 9: detection of real-world misconfigurations\n")
	fmt.Fprintf(&b, "%-3s %-8s %-12s %-10s %-10s %s\n", "ID", "App", "Info", "Rank", "Paper", "Problem")
	for _, r := range rows {
		rank := "-"
		if r.Detected {
			rank = fmt.Sprintf("%d(%d)", r.Rank, r.Total)
		}
		paper := "-"
		if r.Case.PaperRank > 0 {
			paper = fmt.Sprintf("%d(%d)", r.Case.PaperRank, r.Case.PaperTotal)
		}
		problem := r.Case.Problem
		if len(problem) > 60 {
			problem = problem[:57] + "..."
		}
		fmt.Fprintf(&b, "%-3d %-8s %-12s %-10s %-10s %s\n", r.Case.ID, r.Case.App, r.Case.Info, rank, paper, problem)
	}
	return b.String()
}

// ---- Table 10 ----

// Table10Row is one source's detected-misconfiguration category counts.
type Table10Row struct {
	Source       string
	FilePath     int
	Permission   int
	ValueCompare int
	Total        int
	Images       int // distinct images with at least one detection
}

// Table10 applies the EC2-trained plans to the EC2-like and
// private-cloud-like target populations and categorizes detections against
// the planted ground truth.
func Table10(seed int64) ([]Table10Row, error) {
	plans, err := planAll(seed)
	if err != nil {
		return nil, err
	}
	ec2, err := corpus.EC2Targets(seed + 1)
	if err != nil {
		return nil, err
	}
	pc, err := corpus.PrivateCloudTargets(seed + 2)
	if err != nil {
		return nil, err
	}
	var rows []Table10Row
	for _, src := range []struct {
		name string
		pop  *corpus.TargetPopulation
	}{{"EC2", ec2}, {"PrivateCloud", pc}} {
		row := Table10Row{Source: src.name}
		byID := corpus.ByID(src.pop.Images)
		reports := map[string]*detect.Report{}
		imagesHit := map[string]bool{}
		for _, l := range src.pop.Truth {
			img := byID[l.ImageID]
			rep, ok := reports[l.ImageID]
			if !ok {
				r, err := plans[appOf(img)].Check(img)
				if err != nil {
					return nil, err
				}
				rep, reports[l.ImageID] = r, r
			}
			if rep.RankOf(func(w *detect.Warning) bool { return attrRefers(w.Attr, l.Attr) }) > 0 {
				switch l.Category {
				case "FilePath":
					row.FilePath++
				case "Permission":
					row.Permission++
				case "ValueCompare":
					row.ValueCompare++
				}
				row.Total++
				imagesHit[l.ImageID] = true
			}
		}
		row.Images = len(imagesHit)
		rows = append(rows, row)
	}
	return rows, nil
}

func appOf(img *sysimage.Image) string {
	for _, app := range Apps {
		if img.ConfigFor(app) != nil {
			return app
		}
	}
	return ""
}

// RenderTable10 prints Table 10.
func RenderTable10(rows []Table10Row) string {
	var b strings.Builder
	b.WriteString("Table 10: categories of newly detected misconfigurations\n")
	fmt.Fprintf(&b, "%-14s %9s %11s %13s %6s %7s\n", "Source", "FilePath", "Permission", "ValueCompare", "Total", "Images")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %9d %11d %13d %6d %7d\n", r.Source, r.FilePath, r.Permission, r.ValueCompare, r.Total, r.Images)
	}
	return b.String()
}

// ---- Table 11 ----

// Table11Row is the type-inference accuracy for one app.
type Table11Row struct {
	App        string
	Entries    int
	NonTrivial int
	FalseTypes int
	Undetected int
}

// Table11 compares inferred attribute types against the corpus ground
// truth: FalseTypes counts attributes inferred with a wrong non-trivial
// type; Undetected counts ground-truth non-trivial attributes inferred as
// trivial.
func Table11(seed int64) ([]Table11Row, error) {
	rows := make([]Table11Row, len(Apps))
	if err := forEachApp(func(i int, app string) error {
		tr, err := Train(app, 0, seed)
		if err != nil {
			return err
		}
		row := Table11Row{App: app}
		for _, a := range tr.Data.Attributes() {
			if a.Augmented {
				continue
			}
			truth, ok := corpus.GroundTruthType(app, a.Name)
			if !ok {
				continue
			}
			row.Entries++
			if !truth.IsTrivial() {
				row.NonTrivial++
			}
			switch {
			case a.Type == truth:
			case truth.IsTrivial() && a.Type.IsTrivial():
			case a.Type.IsTrivial() && !truth.IsTrivial():
				row.Undetected++
			default:
				row.FalseTypes++
			}
		}
		rows[i] = row
		return nil
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable11 prints Table 11.
func RenderTable11(rows []Table11Row) string {
	var b strings.Builder
	b.WriteString("Table 11: data type detection results\n")
	fmt.Fprintf(&b, "%-8s %8s %11s %11s %11s\n", "App", "Entries", "NonTrivial", "FalseTypes", "Undetected")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %8d %11d %11d %11d\n", r.App, r.Entries, r.NonTrivial, r.FalseTypes, r.Undetected)
	}
	return b.String()
}

// ---- Table 12 ----

// Table12Row is the rule-inference result for one app.
type Table12Row struct {
	App            string
	DetectedRules  int
	FalsePositives int
}

// Table12 counts the rules learned with all filters on, classifying each
// against the corpus ground truth.
func Table12(seed int64) ([]Table12Row, error) {
	rows := make([]Table12Row, len(Apps))
	if err := forEachApp(func(i int, app string) error {
		tr, err := Train(app, 0, seed)
		if err != nil {
			return err
		}
		truth := corpus.GroundTruthRules(app)
		row := Table12Row{App: app, DetectedRules: len(tr.Rules)}
		for _, r := range tr.Rules {
			if !isTrueRule(r, truth) {
				row.FalsePositives++
			}
		}
		rows[i] = row
		return nil
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

func isTrueRule(r *rules.Rule, truth []corpus.TrueRule) bool {
	for _, t := range truth {
		if t.Matches(r.Template, r.AttrA, r.AttrB) {
			return true
		}
	}
	return false
}

// RenderTable12 prints Table 12.
func RenderTable12(rows []Table12Row) string {
	var b strings.Builder
	b.WriteString("Table 12: detected correlation rules with the filters\n")
	fmt.Fprintf(&b, "%-8s %15s %16s\n", "App", "Detected Rules", "False Positives")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %15d %16d\n", r.App, r.DetectedRules, r.FalsePositives)
	}
	return b.String()
}

// ---- Table 13 ----

// Table13Row is the entropy-filter ablation for one app.
type Table13Row struct {
	App          string
	Original     int // rules passing support+confidence only
	FPReduced    int // false rules removed by the entropy filter
	FNIntroduced int // true rules removed by the entropy filter
}

// Table13 re-runs inference with the entropy filter disabled and measures
// what the filter removes.
func Table13(seed int64) ([]Table13Row, error) {
	rows := make([]Table13Row, len(Apps))
	if err := forEachApp(func(i int, app string) error {
		tr, err := Train(app, 0, seed)
		if err != nil {
			return err
		}
		truth := corpus.GroundTruthRules(app)
		withFilter := map[string]bool{}
		for _, r := range tr.Rules {
			withFilter[r.Key()] = true
		}
		// Reuse the training engine (its evaluation contexts for tr.Data /
		// tr.ByID are already memoized) with the entropy filter toggled
		// off for the ablation run.
		eng := tr.Engine
		eng.Config.UseEntropyFilter = false
		unfiltered := eng.Infer(tr.Data, tr.ByID)
		eng.Config.UseEntropyFilter = true
		row := Table13Row{App: app, Original: len(unfiltered)}
		for _, r := range unfiltered {
			if withFilter[r.Key()] {
				continue // survived the filter
			}
			if isTrueRule(r, truth) {
				row.FNIntroduced++
			} else {
				row.FPReduced++
			}
		}
		rows[i] = row
		return nil
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable13 prints Table 13.
func RenderTable13(rows []Table13Row) string {
	var b strings.Builder
	b.WriteString("Table 13: effectiveness of the entropy filter\n")
	fmt.Fprintf(&b, "%-8s %10s %12s %14s\n", "App", "Original", "FP Reduced", "FN Introduced")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %10d %12d %14d\n", r.App, r.Original, r.FPReduced, r.FNIntroduced)
	}
	return b.String()
}
