package detect

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/assemble"
	"repro/internal/conftypes"
	"repro/internal/dataset"
	"repro/internal/rules"
	"repro/internal/templates"
)

// PlanSpec is the one input every Plan is built from: the training-side
// knowledge the checks need, with all runtime-only state (checkers, pools,
// derived scores) stripped. SpecFromDataset derives it from a live
// training set, (*profile.Profile).Spec from a knowledge profile, and
// internal/planio decodes it from the binary plan format; NewPlanFromSpec
// turns any of them into a live Plan, and Plan.Spec extracts it back.
// Derived quantities (cardinality, type/suspicion scores, prefilter skip
// flags) are intentionally not carried — NewPlanFromSpec recomputes them,
// so a round-tripped plan cannot drift from the one it was encoded from.
type PlanSpec struct {
	// Samples is the training-population size.
	Samples int
	// SuspLimit caps suspicious-value warnings per report (0 = no cap).
	SuspLimit int
	// Attrs lists the compiled attributes in declaration order.
	Attrs []PlanSpecAttr
	// Types carries the target-assembly type declarations (the training
	// set's attribute types). Plan.Spec sorts them by name.
	Types []PlanSpecType
	// Rules lists the learned rules in plan order. Plan.Spec carries only
	// those whose template resolved when the plan was built.
	Rules []*rules.Rule
}

// PlanSpecAttr is one attribute's serialized summary.
type PlanSpecAttr struct {
	Name      string
	Type      conftypes.Type
	Augmented bool
	// Has mirrors planAttr.has (attribute observed with a value in
	// training).
	Has bool
	// Sig is the misspelling-prefilter character signature of Name; stored
	// in the binary format so the nearest-name index loads without
	// recomputation.
	Sig uint64
	// Hist is the value histogram, sorted by value for determinism.
	Hist []PlanSpecHistEntry
}

// PlanSpecHistEntry is one histogram bucket.
type PlanSpecHistEntry struct {
	Value string
	Count int
}

// PlanSpecType is one target-assembly type declaration.
type PlanSpecType struct {
	Name string
	Type conftypes.Type
}

// Spec extracts the serializable content of a compiled plan. The result is
// deterministic: attributes keep their declaration order, histograms are
// sorted by value, and the type table is sorted by name, so encoding the
// same plan twice yields identical bytes.
func (p *Plan) Spec() *PlanSpec {
	spec := &PlanSpec{
		Samples:   p.samples,
		SuspLimit: p.suspLimit,
		Attrs:     make([]PlanSpecAttr, len(p.attrStore)),
		Types:     make([]PlanSpecType, 0, len(p.slots)),
		Rules:     make([]*rules.Rule, len(p.rules)),
	}
	for i := range p.attrStore {
		pa := &p.attrStore[i]
		sa := &spec.Attrs[i]
		*sa = PlanSpecAttr{
			Name:      pa.decl.Name,
			Type:      pa.decl.Type,
			Augmented: pa.decl.Augmented,
			Has:       pa.has,
			Sig:       charSig(pa.decl.Name),
		}
		// The plan keeps histograms in spec form (sorted by value), so the
		// spec aliases them; both sides treat the slices as immutable.
		sa.Hist = pa.hist
	}
	for _, sl := range p.slots {
		if sl.typed {
			spec.Types = append(spec.Types, PlanSpecType{Name: sl.name, Type: sl.typ})
		}
	}
	sort.Slice(spec.Types, func(a, b int) bool { return spec.Types[a].Name < spec.Types[b].Name })
	for i, pr := range p.rules {
		spec.Rules[i] = pr.rule
	}
	return spec
}

// SpecFromDataset builds the plan spec of a live training set and its
// learned rules: attributes in declaration order, one type declaration per
// attribute, and the rules as given. SuspLimit is left at 0 (no cap). The
// histograms are read off the columnar index's value dictionaries.
func SpecFromDataset(ds *dataset.Dataset, learned []*rules.Rule) *PlanSpec {
	attrs := ds.Attributes()
	ix := ds.Index()
	spec := &PlanSpec{
		Samples: len(ds.Rows),
		Attrs:   make([]PlanSpecAttr, len(attrs)),
		Types:   make([]PlanSpecType, len(attrs)),
		Rules:   learned,
	}
	for i, a := range attrs {
		values, counts := ix.Dict(a.Name)
		var hist []PlanSpecHistEntry
		if len(values) > 0 {
			hist = make([]PlanSpecHistEntry, len(values))
			for j, v := range values {
				hist[j] = PlanSpecHistEntry{Value: v, Count: counts[j]}
			}
			sortHist(hist)
		}
		spec.Attrs[i] = specAttr(a, ix.Present(a.Name), hist)
		spec.Types[i] = PlanSpecType{Name: a.Name, Type: a.Type}
	}
	return spec
}

// SpecAttr builds one attribute's spec entry from its declaration, the
// number of training systems that set it, and its value histogram.
func SpecAttr(a dataset.Attribute, present int, hist map[string]int) PlanSpecAttr {
	return specAttr(a, present, sortedHist(hist))
}

func specAttr(a dataset.Attribute, present int, hist []PlanSpecHistEntry) PlanSpecAttr {
	return PlanSpecAttr{
		Name:      a.Name,
		Type:      a.Type,
		Augmented: a.Augmented,
		Has:       present > 0,
		Sig:       charSig(a.Name),
		Hist:      hist,
	}
}

// sortedHist converts a histogram map into the spec's sorted slice form
// (nil for an empty histogram, matching the binary encoding).
func sortedHist(m map[string]int) []PlanSpecHistEntry {
	if len(m) == 0 {
		return nil
	}
	hist := make([]PlanSpecHistEntry, 0, len(m))
	for v, n := range m {
		hist = append(hist, PlanSpecHistEntry{Value: v, Count: n})
	}
	sortHist(hist)
	return hist
}

// sortHist orders histogram buckets by value; values are distinct, so the
// order is total.
func sortHist(hist []PlanSpecHistEntry) {
	slices.SortFunc(hist, func(a, b PlanSpecHistEntry) int { return strings.Compare(a.Value, b.Value) })
}

// NewPlanFromSpec builds a live Plan from a spec, resolving type checkers
// against the assembler's inferencer and rule templates against tpls. It
// is the only constructor of a Plan, so a compiled, a profile-built and a
// decoded plan of the same spec check identically. A nil assembler gets a
// fresh default one; nil templates get the predefined set (mirroring
// detect.New). Rules whose template is not installed are dropped.
func NewPlanFromSpec(spec *PlanSpec, asm *assemble.Assembler, tpls []*templates.Template) *Plan {
	if asm == nil {
		asm = assemble.New()
	}
	if tpls == nil {
		tpls = templates.Predefined()
	}
	checkers := newCheckerCache(asm.Inferencer)
	p := &Plan{
		samples:   spec.Samples,
		suspLimit: spec.SuspLimit,
		assembler: asm,
		attrStore: make([]planAttr, len(spec.Attrs)),
		nameIdx:   make([]nameCand, 0, len(spec.Attrs)),
	}
	for i := range spec.Attrs {
		sa := &spec.Attrs[i]
		pa := &p.attrStore[i]
		// The histogram slice is aliased, not copied: the plan and the spec
		// share the sorted-by-value representation, and neither mutates it.
		*pa = planAttr{
			decl:    dataset.Attribute{Name: sa.Name, Type: sa.Type, Augmented: sa.Augmented},
			has:     sa.Has,
			hist:    sa.Hist,
			card:    len(sa.Hist),
			trivial: sa.Type.IsTrivial(),
			check:   checkers.get(sa.Type),
		}
		pa.deriveScores(p.samples)
		if !sa.Augmented {
			p.nameIdx = append(p.nameIdx, nameCand{name: sa.Name, sig: sa.Sig})
		}
	}
	p.link(spec.Types, spec.Rules, tpls)
	return p
}

// findTemplate resolves a template ID against an installed set.
func findTemplate(tpls []*templates.Template, id string) *templates.Template {
	for _, t := range tpls {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// Samples reports the training-population size the plan was compiled from.
func (p *Plan) Samples() int { return p.samples }

// RuleCount reports the number of rules the plan checks (rules whose
// template did not resolve at compile time are excluded).
func (p *Plan) RuleCount() int { return len(p.rules) }

// AttrCount reports the number of compiled training attributes.
func (p *Plan) AttrCount() int { return len(p.attrStore) }
