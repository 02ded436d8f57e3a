package detect

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"repro/internal/assemble"
	"repro/internal/conftypes"
	"repro/internal/dataset"
	"repro/internal/rules"
	"repro/internal/stats"
	"repro/internal/sysimage"
	"repro/internal/templates"
)

// Plan is a compiled, immutable check plan: everything the four anomaly
// checks need from the training side — per-attribute histograms,
// cardinalities, precomputed scores, resolved type checkers, compiled
// rule/template pairs, and a pruned entry-name index for misspelling
// suggestions — resolved once when the plan is built and shared read-only
// across any number of scan workers. Per-image state lives in pooled
// scratch, so Check builds no dataset, no histogram, and (for names
// already seen in training) no strings.
//
// Every Plan is built by NewPlanFromSpec from a PlanSpec, whether the
// spec came from a live training set (Compile), a profile or binary plan
// bytes. A Plan snapshots its spec; mutating the training dataset
// afterwards is not reflected (compile a new Plan). Check is safe for
// concurrent use and produces reports identical to Detector.Check, which
// remains the reference implementation.
type Plan struct {
	samples   int
	suspLimit int
	assembler *assemble.Assembler

	// attrStore holds the compiled training attributes in declaration
	// order.
	attrStore []planAttr

	// slots gives every name the plan knows — training attributes, then
	// target-assembly type declarations, then rule attributes — a dense
	// index; slotOf resolves a name to it. Check resolves each streamed
	// name once and works on slot indexes from then on.
	slots  []planSlot
	slotOf map[string]int32

	// nameIdx lists the non-augmented training attributes in declaration
	// order for nearest-name search, each with a character signature for
	// pruning.
	nameIdx []nameCand

	// rules pairs each learned rule with its resolved template; rules
	// whose template is not installed are dropped when the plan is built,
	// exactly as checkCorrelations skips them.
	rules []planRule

	pool sync.Pool
}

// planAttr is one training attribute's compiled summary.
type planAttr struct {
	decl dataset.Attribute
	// has mirrors Detector.trainingHas (Present > 0).
	has bool
	// hist is the value histogram sorted by value. A sorted slice instead
	// of a map keeps the representation identical to the serialized
	// PlanSpec form, so a decoded plan aliases its spec's slices instead of
	// rebuilding per-attribute maps — the check side only ever asks for
	// membership (histHas).
	hist []PlanSpecHistEntry
	card int
	// trivial caches decl.Type.IsTrivial().
	trivial bool
	// typeScore is checkTypes' cardinality-derived score.
	typeScore float64
	// suspScore is checkSuspiciousValues' score for an unseen value.
	suspScore float64
	// suspSkip marks attributes too diverse to carry peer signal
	// (card*2 >= samples).
	suspSkip bool
	// check is the resolved type checker; nil means the type always
	// passes (String/Enum/unknown defs).
	check func(v string, img *sysimage.Image) (syntacticOK, semanticOK bool)
}

// histHas reports whether v appeared in training — binary search over the
// sorted histogram. Attributes diverse enough for this to matter are
// suspSkip'd anyway, so the searched slices stay small.
func (pa *planAttr) histHas(v string) bool {
	lo, hi := 0, len(pa.hist)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pa.hist[mid].Value < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(pa.hist) && pa.hist[lo].Value == v
}

// nameCand is one candidate for nearest-name search.
type nameCand struct {
	name string
	sig  uint64
}

// planSlot is one name the plan knows.
type planSlot struct {
	name string
	// attr is the training attribute of this name; nil for a name only the
	// type table or a rule mentions.
	attr *planAttr
	// typ is the target-assembly type declaration (the training type
	// AssembleTarget would consult per image), when typed.
	typ   conftypes.Type
	typed bool
}

// planRule is one learned rule with its template, attribute slots and
// report text resolved.
type planRule struct {
	rule *rules.Rule
	tpl  *templates.Template
	a, b int32
	text string
}

// charSig folds a string's bytes into a 64-bit set (one bit per byte
// class). Each unit edit changes at most one byte, hence adds at most one
// bit to either side's exclusive set, so
// popcount(sig(a) &^ sig(b)) <= editDistance(a, b): the signature test
// only ever skips candidates that true edit distance would reject too.
func charSig(s string) uint64 {
	var sig uint64
	for i := 0; i < len(s); i++ {
		sig |= 1 << (s[i] & 63)
	}
	return sig
}

// Compile builds the immutable check plan for this detector's training
// set, rules, templates, and assembler: SpecFromDataset's spec, built by
// the same NewPlanFromSpec a profile or binary plan goes through.
func (dt *Detector) Compile() *Plan {
	spec := SpecFromDataset(dt.Training, dt.Rules)
	spec.SuspLimit = dt.SuspiciousValueLimit
	return NewPlanFromSpec(spec, dt.Assembler, dt.Templates)
}

// link gives every known name its slot — training attributes first, in
// declaration order, then type-table names, then rule attributes — and
// resolves each rule's template and attribute slots, dropping rules whose
// template is not installed exactly as checkCorrelations skips them.
func (p *Plan) link(types []PlanSpecType, rs []*rules.Rule, tpls []*templates.Template) {
	p.slots = make([]planSlot, 0, len(p.attrStore)+len(types))
	p.slotOf = make(map[string]int32, len(p.attrStore)+len(types))
	for i := range p.attrStore {
		pa := &p.attrStore[i]
		p.slots[p.slotIndex(pa.decl.Name)].attr = pa
	}
	for _, t := range types {
		sl := &p.slots[p.slotIndex(t.Name)]
		sl.typ, sl.typed = t.Type, true
	}
	for _, r := range rs {
		if tpl := findTemplate(tpls, r.Template); tpl != nil {
			p.rules = append(p.rules, planRule{rule: r, tpl: tpl,
				a: p.slotIndex(r.AttrA), b: p.slotIndex(r.AttrB), text: r.String()})
		}
	}
	p.pool.New = func() any { return newScratch(p) }
}

// slotIndex returns name's slot, adding one when the name is new.
func (p *Plan) slotIndex(name string) int32 {
	if i, ok := p.slotOf[name]; ok {
		return i
	}
	i := int32(len(p.slots))
	p.slots = append(p.slots, planSlot{name: name})
	p.slotOf[name] = i
	return i
}

// deriveScores computes the per-attribute check parameters that follow
// from the histogram cardinality, the Augmented flag, and the sample
// count. They are never serialized, so a plan rebuilt from its spec is
// arithmetically identical to the one the spec came from.
func (pa *planAttr) deriveScores(samples int) {
	pa.typeScore = 50.0
	if pa.card == 1 {
		pa.typeScore = 90
	} else if pa.card > 1 {
		pa.typeScore = 50 + 30/float64(pa.card)
	}
	if pa.card == 1 {
		pa.suspScore = 70
		if pa.decl.Augmented {
			pa.suspScore = 75
		}
	} else {
		pa.suspScore = 5 * stats.ICF(pa.card, samples)
	}
	pa.suspSkip = pa.card*2 >= samples
}

// checkerCache memoizes compileChecker per type for one plan build: the
// distinct-type count is tiny next to the attribute count, so caching
// avoids re-resolving the def and re-allocating an identical closure for
// every attribute.
type checkerCache struct {
	inf   *conftypes.Inferencer
	byTyp map[conftypes.Type]func(string, *sysimage.Image) (bool, bool)
}

func newCheckerCache(inf *conftypes.Inferencer) *checkerCache {
	return &checkerCache{inf: inf, byTyp: make(map[conftypes.Type]func(string, *sysimage.Image) (bool, bool), 16)}
}

func (cc *checkerCache) get(t conftypes.Type) func(string, *sysimage.Image) (bool, bool) {
	if c, ok := cc.byTyp[t]; ok {
		return c
	}
	c := compileChecker(cc.inf, t)
	cc.byTyp[t] = c
	return c
}

// compileChecker resolves Inferencer.CheckValue's type dispatch once per
// type. A nil checker means every value passes both steps.
func compileChecker(inf *conftypes.Inferencer, t conftypes.Type) func(string, *sysimage.Image) (bool, bool) {
	switch t {
	case conftypes.TypeString, "":
		return nil
	case conftypes.TypeBoolean:
		return func(v string, _ *sysimage.Image) (bool, bool) {
			ok := conftypes.IsBooleanWord(v)
			return ok, ok
		}
	case conftypes.TypeEnum:
		return nil
	}
	def := inf.Def(t)
	if def == nil {
		return nil
	}
	if def.Verify == nil {
		return func(v string, _ *sysimage.Image) (bool, bool) {
			ok := def.Match(v)
			return ok, ok
		}
	}
	return func(v string, img *sysimage.Image) (bool, bool) {
		if !def.Match(v) {
			return false, false
		}
		return true, def.Verify(v, img)
	}
}

// scratch is the per-image working state of one Check call, pooled and
// reused across images. It implements assemble.TargetSink, receiving the
// streamed target attributes into a value table indexed by slot (the one
// row the legacy path would have stored in a fresh dataset).
type scratch struct {
	p   *Plan
	img *sysimage.Image

	// cells is the per-slot table: first the plan's slots, then one extra
	// slot per target-only name. touched lists, in first-touch order, the
	// slots holding per-image state; release resets exactly those.
	cells   []cell
	touched []int32
	// arena backs single-instance cell slices so most Adds allocate
	// nothing; multi-instance attributes fall back to append's growth.
	arena []string

	// extra gives names the plan lacks their slot (past len(p.slots)) and
	// extraNames names those slots. The table doubles as the interner of
	// target-only names across the images this scratch serves; bounded in
	// release().
	extra      map[string]int32
	extraNames []string

	// lastName/lastSlot cache the latest resolution: StreamTarget passes
	// InternName's string straight to TypeOf, Declare and Add, so the calls
	// after InternName compare a pointer instead of hashing the name again.
	lastName string
	lastSlot int32

	// edPrev/edCur are the edit-distance DP rows.
	edPrev, edCur []int

	warnings []*Warning
	susp     []*Warning

	row dataset.Row
	ctx templates.Ctx
}

// cell is one slot's per-image state.
type cell struct {
	vals    []string
	touched bool
	// aug is the target dataset's Augmented flag, tracked for names
	// without a training attribute. The legacy target dataset declares
	// every parsed entry name (non-augmented) before emitting the row, so a
	// non-augmented Declare always wins regardless of stream order;
	// otherwise the first augmented Declare decides.
	aug declState
	// typ memoizes InferValue for names without a type declaration,
	// reproducing the first-occurrence-wins type map of AssembleTarget.
	typ      conftypes.Type
	inferred bool
}

// declState is a cell's Declare history.
type declState uint8

const (
	undeclared declState = iota
	declaredAugmented
	declaredPlain
)

func newScratch(p *Plan) *scratch {
	return &scratch{
		p:        p,
		cells:    make([]cell, len(p.slots), len(p.slots)+16),
		touched:  make([]int32, 0, 64),
		arena:    make([]string, 0, 512),
		extra:    make(map[string]int32, 16),
		lastSlot: -1,
	}
}

// maxExtraInterned bounds the per-scratch interner for target-only names
// so a pathological corpus cannot grow it without limit.
const maxExtraInterned = 1 << 14

// release returns the scratch to the pool with per-image state cleared.
// The interner survives (that is its purpose); the arena is cleared so a
// pooled scratch pins no values of the image it last checked.
func (s *scratch) release() {
	for _, i := range s.touched {
		s.cells[i] = cell{}
	}
	s.touched = s.touched[:0]
	if len(s.extraNames) > maxExtraInterned {
		clear(s.extra)
		s.extraNames = s.extraNames[:0]
		s.cells = s.cells[:len(s.p.slots)]
	}
	s.lastName, s.lastSlot = "", -1
	clear(s.arena)
	s.arena = s.arena[:0]
	s.warnings = s.warnings[:0]
	s.susp = s.susp[:0]
	s.img = nil
	s.row = dataset.Row{}
	s.ctx = templates.Ctx{}
	s.p.pool.Put(s)
}

// slot carves a length-0, capacity-1 string slice out of the arena.
func (s *scratch) slot() []string {
	if len(s.arena) == cap(s.arena) {
		s.arena = make([]string, 0, 2*cap(s.arena))
	}
	n := len(s.arena)
	s.arena = s.arena[: n+1 : cap(s.arena)]
	return s.arena[n : n : 1+n]
}

// name returns slot i's attribute name.
func (s *scratch) name(i int32) string {
	if n := int32(len(s.p.slots)); i >= n {
		return s.extraNames[i-n]
	}
	return s.p.slots[i].name
}

// attr returns slot i's training attribute, nil for names training never
// declared.
func (s *scratch) attr(i int32) *planAttr {
	if int(i) < len(s.p.slots) {
		return s.p.slots[i].attr
	}
	return nil
}

// resolve returns name's slot, giving a name the plan lacks an extra slot.
func (s *scratch) resolve(name string) int32 {
	if s.lastSlot >= 0 && name == s.lastName {
		return s.lastSlot
	}
	i, ok := s.p.slotOf[name]
	if !ok {
		if i, ok = s.extra[name]; !ok {
			i = s.addExtra(name)
		}
	}
	s.lastName, s.lastSlot = name, i
	return i
}

// addExtra gives a target-only name the next extra slot.
func (s *scratch) addExtra(name string) int32 {
	i := int32(len(s.cells))
	s.cells = append(s.cells, cell{})
	s.extra[name] = i
	s.extraNames = append(s.extraNames, name)
	return i
}

// touch returns slot i's cell, listing it for release on first touch.
func (s *scratch) touch(i int32) *cell {
	c := &s.cells[i]
	if !c.touched {
		c.touched = true
		s.touched = append(s.touched, i)
	}
	return c
}

// Declare implements assemble.TargetSink.
func (s *scratch) Declare(name string, _ conftypes.Type, augmented bool) {
	i := s.resolve(name)
	if s.attr(i) != nil {
		// Training declarations come first in the legacy target dataset,
		// so its flag wins; the plan reads it from planAttr directly.
		return
	}
	c := s.touch(i)
	if !augmented {
		c.aug = declaredPlain
	} else if c.aug == undeclared {
		c.aug = declaredAugmented
	}
}

// Add implements assemble.TargetSink.
func (s *scratch) Add(name, value string) {
	c := s.touch(s.resolve(name))
	if len(c.vals) == 0 {
		c.vals = s.slot()
	}
	c.vals = append(c.vals, value)
}

// TypeOf implements assemble.TargetSink.
func (s *scratch) TypeOf(name, value string) conftypes.Type {
	i := s.resolve(name)
	if int(i) < len(s.p.slots) && s.p.slots[i].typed {
		return s.p.slots[i].typ
	}
	c := s.touch(i)
	if !c.inferred {
		c.typ, c.inferred = s.p.assembler.Inferencer.InferValue(value, s.img), true
	}
	return c.typ
}

// InternName implements assemble.TargetSink. The resolution it makes is
// cached for the TypeOf/Declare/Add calls that follow with the returned
// string.
func (s *scratch) InternName(name []byte) string {
	i, ok := s.p.slotOf[string(name)]
	if !ok {
		if i, ok = s.extra[string(name)]; !ok {
			i = s.addExtra(string(name))
		}
	}
	n := s.name(i)
	s.lastName, s.lastSlot = n, i
	return n
}

// Check assembles the target image into pooled scratch and runs the four
// anomaly checks against the compiled tables, returning a report
// identical to Detector.Check's.
func (p *Plan) Check(img *sysimage.Image) (*Report, error) {
	s := p.pool.Get().(*scratch)
	s.img = img
	if err := p.assembler.StreamTarget(img, s); err != nil {
		s.release()
		return nil, err
	}
	// No validator reads Row's cells (see templates.Ctx), so the plan's
	// row carries only the system ID.
	s.row = dataset.Row{SystemID: img.ID}
	s.ctx = templates.Ctx{Row: &s.row, Image: img}

	ws := s.warnings[:0]
	ws = p.checkNames(s, ws)
	ws = p.checkCorrelations(s, ws)
	ws = p.checkTypes(s, img, ws)
	ws = p.checkSuspicious(s, ws)

	slices.SortStableFunc(ws, reportOrder)
	// nil for a clean image, exactly like the legacy detector's
	// unappended nil slice.
	var out []*Warning
	if len(ws) > 0 {
		out = make([]*Warning, len(ws))
		copy(out, ws)
	}
	for i, w := range out {
		w.Rank = i + 1
	}
	s.warnings = ws
	s.release()
	return &Report{SystemID: img.ID, Warnings: out}, nil
}

// checkNames is checkNames compiled: the training flags come from the
// plan, the target-side Augmented flag from the scratch's declare log.
func (p *Plan) checkNames(s *scratch, ws []*Warning) []*Warning {
	for _, i := range s.touched {
		c := &s.cells[i]
		if len(c.vals) == 0 {
			continue
		}
		if pa := s.attr(i); pa != nil {
			if pa.decl.Augmented || pa.has {
				continue
			}
		} else if c.aug == declaredAugmented {
			continue
		}
		attr := s.name(i)
		if isEnvAttr(attr) {
			continue
		}
		msg := fmt.Sprintf("entry %q was never seen in the training set", attr)
		score := 20.0
		if near := p.nearest(s, attr); near != "" {
			msg += fmt.Sprintf(" (did you mean %q?)", near)
			score = 35.0
		}
		ws = append(ws, &Warning{Kind: KindName, Attr: attr, Message: msg, Score: score})
	}
	return ws
}

// nearest is nearestTrainingAttr over the compiled name index: the same
// declaration-order scan with the same shrinking bound, plus two sound
// prefilters (length difference and character signature) that only skip
// candidates editDistance would have rejected at the current bound.
func (p *Plan) nearest(s *scratch, attr string) string {
	sig := charSig(attr)
	best, bestDist := "", 3
	for i := range p.nameIdx {
		c := &p.nameIdx[i]
		if d := len(c.name) - len(attr); d >= bestDist || -d >= bestDist {
			continue
		}
		if bits.OnesCount64(sig&^c.sig) >= bestDist || bits.OnesCount64(c.sig&^sig) >= bestDist {
			continue
		}
		if c.name == attr {
			continue
		}
		if d := s.editDistance(attr, c.name, bestDist); d < bestDist {
			best, bestDist = c.name, d
		}
	}
	return best
}

// editDistance is the bounded Levenshtein distance over the scratch's
// reusable DP rows.
func (s *scratch) editDistance(a, b string, bound int) int {
	if abs(len(a)-len(b)) >= bound {
		return bound
	}
	n := len(b) + 1
	if cap(s.edPrev) < n {
		s.edPrev = make([]int, n)
		s.edCur = make([]int, n)
	}
	return editDistanceInto(a, b, bound, s.edPrev[:n], s.edCur[:n])
}

// checkCorrelations is checkCorrelations compiled: templates and
// attribute slots were resolved per rule when the plan was built.
func (p *Plan) checkCorrelations(s *scratch, ws []*Warning) []*Warning {
	for _, pr := range p.rules {
		r := pr.rule
		va := s.cells[pr.a].vals
		vb := s.cells[pr.b].vals
		if len(va) == 0 || len(vb) == 0 {
			continue // absent entries: rule is ignored (Section 6)
		}
		holds, applicable := pr.tpl.Validate(va, vb, &s.ctx)
		if !applicable || holds {
			continue
		}
		ws = append(ws, &Warning{
			Kind:  KindCorrelation,
			Attr:  r.AttrA,
			Value: strings.Join(va, ";"),
			Rule:  r,
			Message: fmt.Sprintf("correlation %s violated: %s=%q vs %s=%q",
				r.Spec, r.AttrA, strings.Join(va, ";"), r.AttrB, strings.Join(vb, ";")),
			Score:    40 + 20*r.Confidence,
			ruleText: pr.text,
		})
	}
	return ws
}

// checkTypes is checkTypes compiled: the type dispatch and the
// cardinality score were resolved per attribute when the plan was built.
func (p *Plan) checkTypes(s *scratch, img *sysimage.Image, ws []*Warning) []*Warning {
	for _, i := range s.touched {
		pa := s.attr(i)
		if pa == nil || pa.decl.Augmented || pa.trivial || !pa.has {
			continue
		}
		attr := pa.decl.Name
		for _, v := range s.cells[i].vals {
			if conftypes.LooksLikeRegexOrGlob(v) {
				continue
			}
			syn, sem := true, true
			if pa.check != nil {
				syn, sem = pa.check(v, img)
			}
			if syn && sem {
				continue
			}
			step := "semantic verification"
			if !syn {
				step = "syntactic match"
			}
			ws = append(ws, &Warning{
				Kind:  KindType,
				Attr:  attr,
				Value: v,
				Message: fmt.Sprintf("value %q of %s fails %s for type %s",
					v, attr, step, pa.decl.Type),
				Score: pa.typeScore,
			})
		}
	}
	return ws
}

// checkSuspicious is checkSuspiciousValues compiled: histogram,
// cardinality, ICF, and the resulting score come from the plan.
func (p *Plan) checkSuspicious(s *scratch, ws []*Warning) []*Warning {
	sus := s.susp[:0]
	for _, i := range s.touched {
		pa := s.attr(i)
		if pa == nil || !pa.has || pa.suspSkip {
			continue
		}
		attr := pa.decl.Name
		for _, v := range s.cells[i].vals {
			if pa.histHas(v) {
				continue
			}
			sus = append(sus, &Warning{
				Kind:  KindSuspicious,
				Attr:  attr,
				Value: v,
				Message: fmt.Sprintf("value %q of %s never appeared in %d training systems (%d distinct values seen)",
					v, attr, p.samples, pa.card),
				Score: pa.suspScore,
			})
		}
	}
	slices.SortStableFunc(sus, reportOrder)
	s.susp = sus
	if p.suspLimit > 0 && len(sus) > p.suspLimit {
		sus = sus[:p.suspLimit]
	}
	return append(ws, sus...)
}
