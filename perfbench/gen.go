package main

import (
	"fmt"
	"path/filepath"

	encore "repro"
	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/inject"
	"repro/internal/sysimage"
)

// Seed offsets keep the populations of one run independent of each other
// while every one of them still derives from the run's seed.
const (
	seedPlanB     = 7919
	seedTargets   = 1 << 20
	seedDelta     = 31
	seedHeld      = 47
	seedClean     = 61
	seedInjection = 1 << 24
)

// plans holds one compiled plan per app together with its binary form.
type plans struct {
	bytes map[string][]byte
	live  map[string]*detect.Plan
}

// trainingSets generates the paper-sized clean training population of
// every app.
func trainingSets(seed int64) (map[string][]*sysimage.Image, error) {
	out := map[string][]*sysimage.Image{}
	for _, app := range apps {
		imgs, err := corpus.Training(app, trainingSizes[app], seed)
		if err != nil {
			return nil, err
		}
		out[app] = imgs
	}
	return out, nil
}

// learnPlans learns, compiles and encodes one plan per app, then loads
// each back through fw.LoadPlan — the form every scan path receives.
func learnPlans(fw *encore.Framework, train map[string][]*sysimage.Image) (*plans, error) {
	p := &plans{bytes: map[string][]byte{}, live: map[string]*detect.Plan{}}
	learner := encore.New()
	for _, app := range apps {
		k, err := learner.Learn(train[app])
		if err != nil {
			return nil, fmt.Errorf("learn %s: %w", app, err)
		}
		p.bytes[app] = learner.MarshalPlan(learner.CompilePlan(k))
		if p.live[app], err = fw.LoadPlan(p.bytes[app]); err != nil {
			return nil, fmt.Errorf("load %s plan: %w", app, err)
		}
	}
	return p, nil
}

// appOf names the application an image configures.
func appOf(img *sysimage.Image) string {
	for _, app := range apps {
		if img.ConfigFor(app) != nil {
			return app
		}
	}
	return ""
}

// target is one generated target image on disk.
type target struct {
	app, id, path string
	// injected lists the errors planted by inject (serve and learn
	// targets); fleet ground truth lives in fleetInputs.truth.
	injected []inject.Injection
}

// saveImage writes img under dir/<app>/<id>.json.
func saveImage(dir string, img *sysimage.Image) (target, error) {
	app := appOf(img)
	data, err := img.MarshalJSONIndent()
	if err != nil {
		return target{}, err
	}
	path, err := writeFile(filepath.Join(dir, app), img.ID+".json", data)
	return target{app: app, id: img.ID, path: path}, err
}

// injectErrors plants n configuration errors into img, the first of them
// an entry-name typo so the detector's nearest-name search always runs.
func injectErrors(in *inject.Injector, img *sysimage.Image, n int) ([]inject.Injection, error) {
	app := appOf(img)
	first, err := in.InjectKind(img, app, inject.KindNameTypo, 1)
	if err != nil {
		return nil, err
	}
	rest, err := in.Inject(img, app, n-1)
	if err != nil {
		return nil, err
	}
	return append(first, rest...), nil
}

// heldOut generates n fresh clean images per app whose IDs cannot collide
// with training IDs.
func heldOut(n int, seed int64, tag string) (map[string][]*sysimage.Image, error) {
	out := map[string][]*sysimage.Image{}
	for _, app := range apps {
		imgs, err := corpus.Training(app, n, seed)
		if err != nil {
			return nil, err
		}
		for i, img := range imgs {
			img.ID = fmt.Sprintf("%s-%s-%03d", app, tag, i)
		}
		out[app] = imgs
	}
	return out, nil
}

// recallOf scores injected errors against reports, keyed by image ID: an
// injection counts as found when any warning refers to its entry.
func recallOf(targets []target, reports map[string]*detect.Report) (found, total int) {
	for _, t := range targets {
		rep := reports[t.id]
		for _, inj := range t.injected {
			total++
			if rep == nil {
				continue
			}
			for _, w := range rep.Warnings {
				if inj.Matches(w.Attr) {
					found++
					break
				}
			}
		}
	}
	return found, total
}

// flagRate is the share of clean images whose report has any warning.
func flagRate(p map[string]*detect.Plan, clean map[string][]*sysimage.Image) (float64, error) {
	flagged, total := 0, 0
	for _, app := range apps {
		for _, img := range clean[app] {
			rep, err := p[app].Check(img)
			if err != nil {
				return 0, err
			}
			total++
			if len(rep.Warnings) > 0 {
				flagged++
			}
		}
	}
	if total == 0 {
		return 0, nil
	}
	return float64(flagged) / float64(total), nil
}
