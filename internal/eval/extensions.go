package eval

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/inject"
)

// ---- Extension: environment-error injection (Section 8 tie-in) ----

// EnvInjectionRow is the environment-error study result for one app.
type EnvInjectionRow struct {
	App         string
	Total       int
	Baseline    int
	BaselineEnv int
	EnCore      int
}

// EnvInjectionsPerApp is the number of environment errors injected per
// application in the extension study (bounded by the number of live
// environment objects the smallest configuration references).
const EnvInjectionsPerApp = 3

// ExtensionEnvInjection injects errors into the *environment* of a
// held-out image — the configuration file stays byte-identical — and
// counts detections. A pure value-comparison baseline is structurally
// blind here; environment-aware approaches are not.
func ExtensionEnvInjection(seed int64) ([]EnvInjectionRow, error) {
	var rows []EnvInjectionRow
	for _, app := range Apps {
		tr, err := Train(app, 0, seed)
		if err != nil {
			return nil, err
		}
		victims, err := corpus.Training(app, 1, seed+200)
		if err != nil {
			return nil, err
		}
		victim := victims[0]
		victim.ID = app + "-env-victim"
		injections, err := inject.New(seed+13).EnvInject(victim, app, EnvInjectionsPerApp)
		if err != nil {
			return nil, err
		}

		row := EnvInjectionRow{App: app, Total: len(injections)}
		blFindings, err := baseline.NewBaseline(tr.Data).Check(victim)
		if err != nil {
			return nil, err
		}
		bleFindings, err := baseline.NewBaselineEnv(tr.Data).Check(victim)
		if err != nil {
			return nil, err
		}
		report, err := tr.Plan().Check(victim)
		if err != nil {
			return nil, err
		}
		for _, inj := range injections {
			if matchFinding(blFindings, inj) {
				row.Baseline++
			}
			if matchFinding(bleFindings, inj) {
				row.BaselineEnv++
			}
			if matchWarning(report, inj) {
				row.EnCore++
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderEnvInjection prints the extension study.
func RenderEnvInjection(rows []EnvInjectionRow) string {
	var b strings.Builder
	b.WriteString("Extension: environment-error injection (config file untouched)\n")
	fmt.Fprintf(&b, "%-8s %6s %10s %14s %8s\n", "App", "Total", "Baseline", "Baseline+Env", "EnCore")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %6d %10d %14d %8d\n", r.App, r.Total, r.Baseline, r.BaselineEnv, r.EnCore)
	}
	return b.String()
}

// ---- Extension: cross-component rules on the LAMP stack ----

// CrossComponentResult summarizes the LAMP extension.
type CrossComponentResult struct {
	Rules       int
	CrossRules  int
	TrueCross   int // cross rules matching the LAMP ground truth
	SocketRank  int // rank of the stale-socket violation on the broken target
	SessionRank int // rank of the session-owner violation
}

// ExtensionCrossComponent learns from a LAMP-stack corpus and detects the
// two canonical cross-component failures.
func ExtensionCrossComponent(n int, seed int64) (*CrossComponentResult, error) {
	images, err := corpus.LAMPTraining(n, seed)
	if err != nil {
		return nil, err
	}
	tr, err := TrainImages(images)
	if err != nil {
		return nil, err
	}

	res := &CrossComponentResult{Rules: len(tr.Rules)}
	truth := corpus.LAMPTrueRules()
	for _, r := range tr.Rules {
		if appOfAttr(r.AttrA) != appOfAttr(r.AttrB) && appOfAttr(r.AttrA) != "" && appOfAttr(r.AttrB) != "" {
			res.CrossRules++
			for _, t := range truth {
				if t.Matches(r.Template, r.AttrA, r.AttrB) {
					res.TrueCross++
				}
			}
		}
	}
	plan := tr.Plan()

	victims, err := corpus.LAMPTraining(1, seed+50)
	if err != nil {
		return nil, err
	}
	socketTarget := corpus.BreakLAMPSocket(victims[0])
	rep, err := plan.Check(socketTarget)
	if err != nil {
		return nil, err
	}
	res.SocketRank = rep.RankOf(func(w *detect.Warning) bool {
		return attrRefers(w.Attr, "php:PHP/mysqli.default_socket")
	})

	sessionTarget := corpus.BreakLAMPSessionOwner(victims[0])
	rep, err = plan.Check(sessionTarget)
	if err != nil {
		return nil, err
	}
	res.SessionRank = rep.RankOf(func(w *detect.Warning) bool {
		return attrRefers(w.Attr, "php:Session/session.save_path")
	})
	return res, nil
}

func appOfAttr(attr string) string {
	if i := strings.Index(attr, ":"); i >= 0 {
		return attr[:i]
	}
	return ""
}

// RenderCrossComponent prints the LAMP extension summary.
func RenderCrossComponent(r *CrossComponentResult) string {
	var b strings.Builder
	b.WriteString("Extension: cross-component correlation on a LAMP stack\n")
	fmt.Fprintf(&b, "rules learned:              %d\n", r.Rules)
	fmt.Fprintf(&b, "cross-component rules:      %d (%d matching ground truth)\n", r.CrossRules, r.TrueCross)
	fmt.Fprintf(&b, "stale-socket failure rank:  %d\n", r.SocketRank)
	fmt.Fprintf(&b, "session-owner failure rank: %d\n", r.SessionRank)
	return b.String()
}
