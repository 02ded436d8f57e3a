// Package encore is a from-scratch reproduction of EnCore, the
// misconfiguration detector of Zhang et al. (ASPLOS 2014): "EnCore:
// Exploiting System Environment and Correlation Information for
// Misconfiguration Detection".
//
// EnCore learns best-practice configuration rules from a training set of
// configured system images and checks target systems against them. Two
// information sources distinguish it from value-comparison detectors:
//
//   - Environment integration: configuration values are semantically typed
//     (file path, user, port, size, ...) by a two-step syntactic/semantic
//     inference against the system image, and each typed entry is
//     augmented with environment attributes (owner, kind, permission,
//     address class, ...).
//   - Correlation rules: typed rule templates are instantiated over
//     eligible attribute pairs and validated across the training set, with
//     support, confidence, and entropy filters pruning false rules.
//
// The Framework type bundles the pipeline; Learn produces Knowledge from a
// training set; Check produces a ranked anomaly report for a target image.
//
//	fw := encore.New()
//	k, err := fw.Learn(trainingImages)
//	report, err := fw.Check(k, target)
//	for _, w := range report.Warnings { fmt.Println(w.Rank, w.Message) }
package encore

import (
	"fmt"
	"log/slog"
	"os"

	"repro/internal/advise"
	"repro/internal/assemble"
	"repro/internal/conftypes"
	"repro/internal/custom"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/fleet"
	"repro/internal/planio"
	"repro/internal/profile"
	"repro/internal/rules"
	"repro/internal/scan"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
	"repro/internal/templates"
)

// Re-exported types so downstream users work with one import.
type (
	// Image is a captured system image (environment + configuration).
	Image = sysimage.Image
	// Report is a ranked anomaly report.
	Report = detect.Report
	// Warning is one detected anomaly.
	Warning = detect.Warning
	// Rule is one learned correlation rule.
	Rule = rules.Rule
	// Config holds the rule-inference thresholds.
	Config = rules.Config
	// ScanResult is the outcome of a batch target scan.
	ScanResult = scan.Result
	// ImageSource is a fleet of already-loaded images, scanned in slice
	// order (see ScanEngine).
	ImageSource = fleet.ImageSource
	// ScanError is one isolated per-image scan failure.
	ScanError = scan.ScanError
	// Plan is a compiled, immutable check plan shared read-only across
	// scan workers (see CompilePlan).
	Plan = detect.Plan
	// Telemetry records pipeline counters and stage timings.
	Telemetry = telemetry.Recorder
)

// Warning kinds, re-exported from the detector.
const (
	KindName        = detect.KindName
	KindCorrelation = detect.KindCorrelation
	KindType        = detect.KindType
	KindSuspicious  = detect.KindSuspicious
)

// Framework bundles the EnCore pipeline: the data assembler (with its type
// inferencer), the rule-inference engine, and any loaded customization.
type Framework struct {
	Assembler *assemble.Assembler
	Engine    *rules.Engine
}

// New returns a framework with the predefined types (Table 4), the default
// augmenters (Table 5), and the 11 predefined rule templates (Table 6).
func New() *Framework {
	return &Framework{
		Assembler: assemble.New(),
		Engine:    rules.NewEngine(),
	}
}

// LoadCustomization parses a customization file (Section 5.3) and installs
// its types, augmenters, operators, and templates into the framework.
func (f *Framework) LoadCustomization(src string) error {
	c, err := custom.ParseFile(src)
	if err != nil {
		return err
	}
	c.Apply(f.Assembler.Inferencer, f.Assembler, f.Engine)
	return nil
}

// LoadCustomizationFile reads and applies a customization file from disk.
func (f *Framework) LoadCustomizationFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("encore: read customization: %w", err)
	}
	return f.LoadCustomization(string(data))
}

// Knowledge is what Learn produces: the assembled training dataset, the
// learned rules, and the training images (validators may consult their
// environments again during checking).
type Knowledge struct {
	Training *dataset.Dataset
	Rules    []*rules.Rule
	images   map[string]*sysimage.Image

	// state carries the rule engine's per-candidate evidence so AddImages/
	// RetireImages can re-infer incrementally instead of re-sweeping the
	// corpus.
	state rules.InferState
}

// Learn assembles the training images and infers correlation rules.
func (f *Framework) Learn(images []*sysimage.Image) (*Knowledge, error) {
	if len(images) == 0 {
		return nil, fmt.Errorf("encore: empty training set")
	}
	ds, err := f.Assembler.AssembleTraining(images)
	if err != nil {
		return nil, err
	}
	byID := make(map[string]*sysimage.Image, len(images))
	for _, im := range images {
		byID[im.ID] = im
	}
	k := &Knowledge{Training: ds, images: byID}
	k.Rules = f.Engine.InferWithState(ds, byID, &k.state)
	return k, nil
}

// AddImages grows the knowledge by a batch of new training images without
// re-learning from scratch: the images are assembled into delta rows with
// frozen attribute types, appended to the dataset (which maintains its
// columnar index by delta), and the rule set is re-inferred incrementally —
// only candidates whose evidence the new rows touch are revalidated. The
// resulting rules are identical to a from-scratch Learn over the combined
// image set with the same frozen types.
func (f *Framework) AddImages(k *Knowledge, images ...*sysimage.Image) error {
	if k == nil {
		return fmt.Errorf("encore: nil knowledge (call Learn first)")
	}
	if len(images) == 0 {
		return nil
	}
	for _, im := range images {
		if _, dup := k.images[im.ID]; dup {
			return fmt.Errorf("encore: image %s already in training set", im.ID)
		}
	}
	added, err := f.Assembler.AssembleDeltaRows(k.Training, images)
	if err != nil {
		return err
	}
	k.Training.AddRows(added...)
	for _, im := range images {
		k.images[im.ID] = im
	}
	k.Rules = f.Engine.InferDelta(k.Training, k.images, &k.state, added, nil)
	return nil
}

// RetireImages removes training images by ID (unknown IDs are ignored) and
// re-infers the rule set incrementally, subtracting only the retired rows'
// evidence. The retired images stay visible to the rule engine during the
// delta inference — a retired row's contribution must be re-validated
// against the same environment it was counted with — and are dropped from
// the knowledge afterwards.
func (f *Framework) RetireImages(k *Knowledge, ids ...string) error {
	if k == nil {
		return fmt.Errorf("encore: nil knowledge (call Learn first)")
	}
	retired := k.Training.RetireRows(ids...)
	if len(retired) == 0 {
		return nil
	}
	k.Rules = f.Engine.InferDelta(k.Training, k.images, &k.state, nil, retired)
	for _, row := range retired {
		delete(k.images, row.SystemID)
	}
	return nil
}

// RuleSet exports the knowledge's rules and attribute types for
// serialization; learned rules can be reused to check many systems.
func (k *Knowledge) RuleSet() *rules.RuleSet {
	return rules.NewRuleSet(k.Rules, k.Training)
}

// Profile exports the complete learned knowledge — attribute types, value
// histograms, and rules — as a portable document. A detector rebuilt from
// the profile (see CheckWithProfile) produces the same reports as one
// holding the live training set, so targets can be checked without
// shipping the training corpus.
func (k *Knowledge) Profile() *profile.Profile {
	return profile.Build(k.Training, k.Rules)
}

// CheckWithProfile checks a target against previously exported knowledge.
func (f *Framework) CheckWithProfile(p *profile.Profile, img *sysimage.Image) (*detect.Report, error) {
	dt := p.Detector()
	dt.Assembler = f.Assembler
	dt.Templates = f.Engine.Templates
	return dt.Check(img)
}

// LoadProfile parses a serialized knowledge profile.
func LoadProfile(data []byte) (*profile.Profile, error) {
	return profile.Unmarshal(data)
}

// Advice is one remediation suggestion for a warning.
type Advice = advise.Advice

// Advise derives remediation advice for a report's warnings, using the
// knowledge's value distributions for "what the fleet does" hints.
func (k *Knowledge) Advise(r *detect.Report) []Advice {
	return advise.New(detect.DatasetView{D: k.Training}).ForReport(r)
}

// RenderAdvice formats advice as a numbered list.
func RenderAdvice(a []Advice) string { return advise.Render(a) }

// Check runs the anomaly detector on a target image and returns a ranked
// report.
func (f *Framework) Check(k *Knowledge, img *sysimage.Image) (*detect.Report, error) {
	if k == nil {
		return nil, fmt.Errorf("encore: nil knowledge (call Learn first)")
	}
	dt := detect.New(k.Training, k.Rules)
	dt.Assembler = f.Assembler
	dt.Templates = f.Engine.Templates
	return dt.Check(img)
}

// Detector returns a configured detector for callers that need to tune it
// (warning limits, template sets) before checking.
func (f *Framework) Detector(k *Knowledge) *detect.Detector {
	dt := detect.New(k.Training, k.Rules)
	dt.Assembler = f.Assembler
	dt.Templates = f.Engine.Templates
	return dt
}

// CompilePlan compiles learned knowledge into an immutable check plan:
// histograms, scores, type checkers, and the misspelling index are
// resolved once, and Plan.Check then runs the four anomaly checks over
// pooled per-image scratch. Reports are identical to Check's; the plan
// snapshots the knowledge, so compile a new one after re-learning.
func (f *Framework) CompilePlan(k *Knowledge) *detect.Plan {
	return f.Detector(k).Compile()
}

// CompilePlanFromProfile compiles a deserialized knowledge profile into a
// check plan (the batch counterpart of CheckWithProfile).
func (f *Framework) CompilePlanFromProfile(p *profile.Profile) *detect.Plan {
	dt := p.Detector()
	dt.Assembler = f.Assembler
	dt.Templates = f.Engine.Templates
	return dt.Compile()
}

// MarshalPlan serializes a compiled plan to the versioned binary plan
// format (see internal/planio). The bytes capture everything the plan
// derived from training — histograms, rules, the type table, prefilter
// signatures — so LoadPlan can rebuild an identical plan without the
// training corpus, a profile, or re-learning.
func (f *Framework) MarshalPlan(p *detect.Plan) []byte {
	rec := f.Assembler.Telemetry
	sp := rec.StartSpan("plan.encode")
	data := planio.Encode(p.Spec())
	sp.SetAttr("bytes", fmt.Sprintf("%d", len(data)))
	sp.End()
	rec.Add(telemetry.CounterPlanEncoded, 1)
	rec.Add(telemetry.CounterPlanEncodedBytes, int64(len(data)))
	return data
}

// LoadPlan decodes a binary plan and rebuilds the live check plan against
// this framework's assembler (for type checkers and target assembly) and
// template set (for rule resolution). This is the millisecond cold-start
// path: no training corpus, no histogram rebuild, no rule re-learning.
func (f *Framework) LoadPlan(data []byte) (*detect.Plan, error) {
	rec := f.Assembler.Telemetry
	sp := rec.StartSpan("plan.load")
	defer sp.End()
	spec, err := planio.Decode(data)
	if err != nil {
		return nil, err
	}
	p, err := detect.NewPlanFromSpec(spec, f.Assembler, f.Engine.Templates)
	if err != nil {
		return nil, err
	}
	rec.Add(telemetry.CounterPlanLoaded, 1)
	rec.Add(telemetry.CounterPlanLoadedBytes, int64(len(data)))
	return p, nil
}

// Templates returns the framework's active rule templates.
func (f *Framework) Templates() []*templates.Template { return f.Engine.Templates }

// SetTelemetry threads one recorder through the assembler and the rule
// engine, so a Learn/Check run reports its stage timings and counters.
// Pass nil to disable instrumentation again.
func (f *Framework) SetTelemetry(rec *telemetry.Recorder) {
	f.Assembler.Telemetry = rec
	f.Engine.Telemetry = rec
}

// SetLogger threads one structured logger through the assembler and the
// rule engine (scan engines built afterwards inherit it). Pass nil to
// silence pipeline logging again.
func (f *Framework) SetLogger(log *slog.Logger) {
	f.Assembler.Log = log
	f.Engine.Log = log
}

// ScanEngine returns the batch scan engine over a compiled check plan: a
// fleet coordinator that checks every image with p.Check, each image its
// own fault domain (see internal/fleet), wired to the framework's
// telemetry recorder and logger. Build p with CompilePlan,
// CompilePlanFromProfile or LoadPlan, and set the rest of the engine's
// Opts (Shards, Workers, Strict, Alerts, ...) before Run or Collect.
func (f *Framework) ScanEngine(p *detect.Plan) *fleet.Coordinator {
	return &fleet.Coordinator{Opts: fleet.Options{
		Check:     p.Check,
		Telemetry: f.Assembler.Telemetry,
		Log:       f.Assembler.Log,
	}}
}

// TypeOf reports the semantic type learned for an attribute.
func (k *Knowledge) TypeOf(attr string) (conftypes.Type, bool) {
	a, ok := k.Training.Attr(attr)
	if !ok {
		return "", false
	}
	return a.Type, true
}
