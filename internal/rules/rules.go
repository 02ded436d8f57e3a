// Package rules implements EnCore's template-guided rule inference
// (Section 5, Figure 5): for each template, find the attributes eligible by
// semantic type, instantiate every candidate pair, validate each candidate
// against every training system, and keep the candidates that pass the
// support, confidence, and entropy filters.
//
// Instantiation of one candidate is independent of every other candidate
// (zero shared state), so the engine streams candidates to a worker pool
// sized to the machine — the same parallelism the paper exploits with a
// multi-process implementation. On top of that, Infer runs against the
// dataset's columnar index (see internal/dataset/index.go): candidate
// support is popcount(bitsetA AND bitsetB) in O(rows/64), support-rejected
// candidates die before any per-system validation, the validation sweep
// itself iterates only the co-occurrence bitset, and the entropy filter
// reads memoized per-attribute entropies instead of rebuilding value
// histograms per candidate. Value-only templates are not validated row by
// row at all: each distinct value of a column is interpreted once and the
// candidate is counted from the meanings (see meanings.go). The tests keep
// InferSerial, the index-free, single-threaded oracle that calls Validate
// on every row, and hold the two to the same rules and Stats.
package rules

import (
	"cmp"
	"encoding/json"
	"log/slog"
	"math/bits"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
	"repro/internal/templates"
)

// Rule is a concrete instantiation of a template: the placeholders are
// filled with attribute names, and the training-set statistics are
// recorded.
type Rule struct {
	Template   string  `json:"template"`
	Spec       string  `json:"spec"`
	AttrA      string  `json:"attrA"`
	AttrB      string  `json:"attrB"`
	Support    int     `json:"support"`    // systems where both attributes co-occur
	Valid      int     `json:"valid"`      // systems where the relation holds
	Confidence float64 `json:"confidence"` // Valid / applicable systems
	EntropyA   float64 `json:"entropyA"`
	EntropyB   float64 `json:"entropyB"`
}

// String renders the rule for reports:
//
//	Template(AttrA, AttrB) support=Support conf=Confidence
//
// with the confidence to two decimals. It writes the text in one
// allocation (fmt.Sprintf's %d and %.2f give the same bytes), since a
// plan formats every rule each time one is built or swapped in.
func (r *Rule) String() string {
	var num [32]byte
	var b strings.Builder
	b.Grow(len(r.Template) + len(r.AttrA) + len(r.AttrB) + len("(, ) support= conf=") + 24)
	b.WriteString(r.Template)
	b.WriteByte('(')
	b.WriteString(r.AttrA)
	b.WriteString(", ")
	b.WriteString(r.AttrB)
	b.WriteString(") support=")
	b.Write(strconv.AppendInt(num[:0], int64(r.Support), 10))
	b.WriteString(" conf=")
	b.Write(strconv.AppendFloat(num[:0], r.Confidence, 'f', 2, 64))
	return b.String()
}

// Key identifies a rule regardless of statistics.
func (r *Rule) Key() string { return r.Template + "|" + r.AttrA + "|" + r.AttrB }

// compareKeys orders rules as their keys compare, a.Key() against
// b.Key(), without building either. Comparing the fields one by one would
// differ when one field is a prefix of the other, since '|' sorts after
// most name bytes, so the keys are walked as the byte strings they spell.
func compareKeys(a, b *Rule) int {
	x := [...]string{a.Template, "|", a.AttrA, "|", a.AttrB}
	y := [...]string{b.Template, "|", b.AttrA, "|", b.AttrB}
	var s, t string
	for i, j := 0, 0; ; {
		for ; s == "" && i < len(x); i++ {
			s = x[i]
		}
		for ; t == "" && j < len(y); j++ {
			t = y[j]
		}
		n := min(len(s), len(t))
		if c := strings.Compare(s[:n], t[:n]); c != 0 || n == 0 {
			return cmp.Or(c, cmp.Compare(len(s), len(t)))
		}
		s, t = s[n:], t[n:]
	}
}

// Config holds the inference thresholds (Section 5.2 defaults).
type Config struct {
	// MinConfidence is the minimum fraction of applicable systems on which
	// the relation must hold (paper: 0.90).
	MinConfidence float64
	// MinSupportFraction is the minimum fraction of training systems in
	// which both attributes must co-occur (paper: 0.10).
	MinSupportFraction float64
	// EntropyThreshold is Ht; attributes at or below it are excluded.
	// Set UseEntropyFilter=false to disable (Table 13's ablation).
	EntropyThreshold float64
	UseEntropyFilter bool
	// Workers bounds the candidate-evaluation pool; 0 means NumCPU.
	Workers int
}

// DefaultConfig returns the paper's evaluation thresholds.
func DefaultConfig() Config {
	return Config{
		MinConfidence:      0.90,
		MinSupportFraction: 0.10,
		EntropyThreshold:   stats.DefaultEntropyThreshold,
		UseEntropyFilter:   true,
	}
}

// Stats summarizes one inference run: how many candidates each filter
// rejected. It explains where the typed search space went — the kind of
// accounting Table 13 does for the entropy filter, generalized to all
// three filters. Filters apply in order support → confidence → entropy,
// so e.g. EntropyRejected counts candidates that passed support and
// confidence (Table 13's accounting of what the entropy filter alone
// removes).
type Stats struct {
	// Candidates is the size of the typed instantiation space.
	Candidates int
	// NoEvidence counts candidates whose attributes never co-occurred (or
	// whose validator was never applicable).
	NoEvidence int
	// SupportRejected, ConfidenceRejected, EntropyRejected count
	// candidates killed by each filter, applied in that order.
	SupportRejected    int
	ConfidenceRejected int
	EntropyRejected    int
	// Kept is the number of surviving rules.
	Kept int
}

// Engine infers rules from an assembled training dataset.
type Engine struct {
	Config    Config
	Templates []*templates.Template

	// LastStats describes the most recent Infer/InferSerial run.
	LastStats Stats

	// Telemetry, when set, receives the inference stage timing and the
	// candidate-validation counters. Nil disables instrumentation.
	Telemetry *telemetry.Recorder

	// Log, when set, receives a structured summary record per inference
	// run (candidate and survivor counts, correlated with the rules.infer
	// span). Nil silences engine logging.
	Log *slog.Logger

	// ctxMu guards the memoized per-row evaluation contexts, shared
	// across Infer/InferSerial runs over the same dataset and image map
	// (the threshold sweeps re-infer 15x over one corpus).
	ctxMu      sync.Mutex
	ctxData    *dataset.Dataset
	ctxImgsKey uintptr
	ctxs       []templates.Ctx
}

// NewEngine returns an engine with the predefined templates and default
// thresholds.
func NewEngine() *Engine {
	return &Engine{Config: DefaultConfig(), Templates: templates.Predefined()}
}

// AddTemplate registers an additional (custom) template.
func (e *Engine) AddTemplate(t *templates.Template) {
	e.Templates = append(e.Templates, t)
}

// candidate is one (template, attrA, attrB) instantiation to evaluate.
// ma and mb are a value-only template's meaning columns once resolved
// (see meanings.go); nil means the candidate is validated row by row.
type candidate struct {
	tpl    *templates.Template
	attrA  string
	attrB  string
	ma, mb *meanings
}

// inferTally accumulates one worker's share of an inference run, merged
// after the pool drains so the hot loop touches no shared state.
type inferTally struct {
	rules         []*Rule
	stats         Stats
	prunedSupport int64 // candidates killed by the bitset before any Validate call

	// cands captures each candidate's evaluation tally when the run feeds
	// an InferState (see incremental.go); nil when capture is off.
	cands []capturedCand
}

func (t *inferTally) record(r *Rule, reason rejectReason) {
	switch reason {
	case kept:
		t.stats.Kept++
	case noEvidence:
		t.stats.NoEvidence++
	case supportRejected:
		t.stats.SupportRejected++
	case confidenceRejected:
		t.stats.ConfidenceRejected++
	case entropyRejected:
		t.stats.EntropyRejected++
	}
	if r != nil {
		t.rules = append(t.rules, r)
	}
}

func (t *inferTally) merge(o *inferTally) {
	t.rules = append(t.rules, o.rules...)
	t.stats.Kept += o.stats.Kept
	t.stats.NoEvidence += o.stats.NoEvidence
	t.stats.SupportRejected += o.stats.SupportRejected
	t.stats.ConfidenceRejected += o.stats.ConfidenceRejected
	t.stats.EntropyRejected += o.stats.EntropyRejected
	t.prunedSupport += o.prunedSupport
	t.cands = append(t.cands, o.cands...)
}

// Infer learns concrete rules from the dataset. images maps system ID to
// its image so validators can consult the environment; rows whose image is
// missing still participate in value-only validators.
//
// Candidates are generated on the fly and streamed to the worker pool —
// the full instantiation space (millions of structs in the untyped
// ablation's worst case) is never materialized.
func (e *Engine) Infer(d *dataset.Dataset, images map[string]*sysimage.Image) []*Rule {
	rules, _ := e.infer(d, images, false)
	return rules
}

// infer is the shared body of Infer and InferWithState. When capture is
// set, every candidate's evaluation tally is collected (via the worker
// tallies, so the hot loop still touches no shared state) and returned for
// the caller to fold into an InferState.
func (e *Engine) infer(d *dataset.Dataset, images map[string]*sysimage.Image, capture bool) ([]*Rule, []capturedCand) {
	defer e.Telemetry.StartStage(telemetry.StageRulesInfer)()
	ix := d.Index()
	ctxs := e.contexts(d, images)

	workers := e.Config.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	root := e.Telemetry.StartSpan("rules.infer",
		telemetry.A("templates", strconv.Itoa(len(e.Templates))),
		telemetry.A("workers", strconv.Itoa(workers)))
	defer root.End()
	timed := e.Telemetry != nil

	tallies := make([]inferTally, workers)
	next := make(chan candidate, 4*workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, t *inferTally) {
			defer wg.Done()
			ws := root.StartChild("rules.worker", telemetry.A("worker", strconv.Itoa(w)))
			// Per-candidate latencies accumulate into a worker-local
			// histogram (no lock per sample) merged once at drain.
			var local telemetry.Histogram
			n := 0
			for c := range next {
				var start time.Time
				if timed {
					start = time.Now()
				}
				r, reason, ct := e.evaluateCandidate(ix, ctxs, c)
				if timed {
					local.Observe(time.Since(start))
				}
				n++
				t.record(r, reason)
				if !ct.validated {
					t.prunedSupport++
				}
				if capture {
					t.cands = append(t.cands, capturedCand{
						key:   candKey{tpl: c.tpl.ID, attrA: c.attrA, attrB: c.attrB},
						tally: ct,
					})
				}
			}
			e.Telemetry.MergeHistogram(telemetry.HistRuleValidate, &local)
			ws.SetAttr("candidates", strconv.Itoa(n))
			ws.End()
		}(w, &tallies[w])
	}
	// The meaning columns are built here, on the enumerating goroutine;
	// workers only read them.
	mt := newMeaningTable(ix)
	candidates := 0
	e.forEachCandidate(d, mt, func(c candidate) {
		candidates++
		next <- c
	})
	close(next)
	wg.Wait()

	var total inferTally
	for i := range tallies {
		total.merge(&tallies[i])
	}
	total.stats.Candidates = candidates
	e.LastStats = total.stats
	e.Telemetry.Add(telemetry.CounterRulesValidated, int64(candidates))
	e.Telemetry.Add(telemetry.CounterRulesKept, int64(total.stats.Kept))
	e.Telemetry.Add(telemetry.CounterRulesPrunedSupport, total.prunedSupport)
	e.Telemetry.Add(telemetry.CounterRulesPrunedEntropy, int64(total.stats.EntropyRejected))
	root.Logger(e.Log).Debug("rule inference done",
		"candidates", candidates, "kept", total.stats.Kept,
		"pruned_support", total.prunedSupport, "pruned_entropy", total.stats.EntropyRejected)
	slices.SortFunc(total.rules, compareKeys)
	return total.rules, total.cands
}

// rejectReason records why a candidate did not become a rule.
type rejectReason int

const (
	kept rejectReason = iota
	noEvidence
	supportRejected
	confidenceRejected
	entropyRejected
)

// forEachCandidate enumerates every eligible (template, attrA, attrB) pair
// without materializing the instantiation space. Type-based attribute
// selection happens here: this is what keeps the candidate space tractable
// compared with frequent-item-set mining. With a meaning table, each
// value-only candidate carries its meaning columns, resolved once per
// eligible attribute and template rather than per candidate.
func (e *Engine) forEachCandidate(d *dataset.Dataset, mt *meaningTable, yield func(candidate)) {
	attrs := d.Attributes()
	var as, bs []dataset.Attribute
	var ma, mb []*meanings
	for _, tpl := range e.Templates {
		as, bs = as[:0], bs[:0]
		for _, a := range attrs {
			if tpl.EligibleA(a) {
				as = append(as, a)
			}
			if tpl.EligibleB(a) {
				bs = append(bs, a)
			}
		}
		ma, mb = mt.columns(ma[:0], as, tpl.Interp), mt.columns(mb[:0], bs, tpl.Interp)
		for i, a := range as {
			for j, b := range bs {
				if a.Name == b.Name {
					continue
				}
				if tpl.SameType && a.Type != b.Type {
					continue
				}
				if tpl.Symmetric && a.Name > b.Name {
					continue
				}
				// An augmented attribute correlating with its own base
				// entry is tautological (datadir.owner vs datadir);
				// skip base/augmented self-pairs.
				if isOwnAugment(a, b) || isOwnAugment(b, a) {
					continue
				}
				c := candidate{tpl: tpl, attrA: a.Name, attrB: b.Name}
				if len(ma) > 0 {
					c.ma, c.mb = ma[i], mb[j]
				}
				yield(c)
			}
		}
	}
}

// CandidateCount exposes the size of the typed search space (used by the
// typed-selection ablation). It streams the space, so even the untyped
// worst case costs no per-candidate allocation.
func (e *Engine) CandidateCount(d *dataset.Dataset) int {
	n := 0
	e.forEachCandidate(d, nil, func(candidate) { n++ })
	return n
}

// isOwnAugment reports whether aug is an augmented attribute derived from
// base (aug.Name == base.Name + "." + suffix).
func isOwnAugment(aug, base dataset.Attribute) bool {
	return aug.Augmented && len(aug.Name) > len(base.Name)+1 &&
		aug.Name[:len(base.Name)] == base.Name && aug.Name[len(base.Name)] == '.'
}

// contexts returns the per-row evaluation contexts, memoized across runs
// over the same (dataset, image map) pair so repeated inference — the
// threshold sweep's 15 runs, Table 13's filtered/unfiltered pair — builds
// them once, in one allocation.
func (e *Engine) contexts(d *dataset.Dataset, images map[string]*sysimage.Image) []templates.Ctx {
	var key uintptr
	if images != nil {
		key = reflect.ValueOf(images).Pointer()
	}
	e.ctxMu.Lock()
	defer e.ctxMu.Unlock()
	if e.ctxData == d && e.ctxImgsKey == key && len(e.ctxs) == len(d.Rows) {
		// The dataset is mutable (AddRows/RetireRows shift rows in place),
		// so a matching length is not proof the memo is current — an add
		// followed by an equal-sized retire leaves the count unchanged with
		// different rows. Verify row identity before trusting the hit.
		fresh := true
		for i := range e.ctxs {
			if e.ctxs[i].Row != d.Rows[i] {
				fresh = false
				break
			}
		}
		if fresh {
			return e.ctxs
		}
	}
	ctxs := make([]templates.Ctx, len(d.Rows))
	for i, row := range d.Rows {
		ctxs[i] = templates.Ctx{Row: row, Image: images[row.SystemID]}
	}
	e.ctxData, e.ctxImgsKey, e.ctxs = d, key, ctxs
	return ctxs
}

// evaluateCandidate validates one candidate using the columnar index:
// support comes from the presence bitsets, a value-only candidate is
// counted from its meaning columns, any other candidate's validation
// sweep visits only co-occurrence rows, and the entropy filter reads
// memoized values. The returned candTally carries the raw counts (for
// incremental maintenance, see incremental.go); tally.validated is false
// when the candidate died on the support filter before any validation. A
// nil rule is accompanied by the reason the candidate died; the
// classification is identical to evaluateSerial's.
func (e *Engine) evaluateCandidate(ix *dataset.Index, ctxs []templates.Ctx, c candidate) (*Rule, rejectReason, candTally) {
	total := len(ctxs)
	support := ix.CoSupport(c.attrA, c.attrB)
	if total == 0 || support == 0 {
		return nil, noEvidence, candTally{support: support}
	}
	if stats.SupportFraction(support, total) < e.Config.MinSupportFraction {
		return nil, supportRejected, candTally{support: support}
	}
	var applicable, valid int
	if c.ma != nil {
		applicable, valid = countMeanings(c.tpl.Interp, c.ma, c.mb)
	} else {
		applicable, valid = sweep(ix, ctxs, c)
	}
	r, reason := e.finish(c, total, support, applicable, valid, ix.Entropy(c.attrA), ix.Entropy(c.attrB))
	return r, reason, candTally{support: support, applicable: applicable, valid: valid, validated: true}
}

// sweep validates a candidate on every row where both attributes appear
// and counts the applicable and valid rows.
func sweep(ix *dataset.Index, ctxs []templates.Ctx, c candidate) (applicable, valid int) {
	bitsA, bitsB := ix.PresenceBits(c.attrA), ix.PresenceBits(c.attrB)
	// Delta index snapshots share untouched columns with pre-delta bitset
	// lengths (implicit zero high words); clamp to the shorter set.
	if len(bitsB) < len(bitsA) {
		bitsA = bitsA[:len(bitsB)]
	}
	rowsA, rowsB := ix.RowValues(c.attrA), ix.RowValues(c.attrB)
	for w, wa := range bitsA {
		word := wa & bitsB[w]
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			holds, app := c.tpl.Validate(rowsA[i], rowsB[i], &ctxs[i])
			if !app {
				continue
			}
			applicable++
			if holds {
				valid++
			}
		}
	}
	return applicable, valid
}

// finish applies the shared filter chain — no applicable evidence, then
// confidence, then entropy — and builds the rule for survivors. Support
// has already been checked; keeping the tail in one place guarantees the
// indexed and serial paths classify candidates identically.
func (e *Engine) finish(c candidate, total, support, applicable, valid int, entA, entB float64) (*Rule, rejectReason) {
	if applicable == 0 {
		return nil, noEvidence
	}
	conf := stats.Confidence(valid, applicable)
	if conf < e.Config.MinConfidence {
		return nil, confidenceRejected
	}
	if e.Config.UseEntropyFilter {
		if entA <= e.Config.EntropyThreshold || entB <= e.Config.EntropyThreshold {
			return nil, entropyRejected
		}
	}
	return &Rule{
		Template:   c.tpl.ID,
		Spec:       c.tpl.Spec,
		AttrA:      c.attrA,
		AttrB:      c.attrB,
		Support:    support,
		Valid:      valid,
		Confidence: conf,
		EntropyA:   entA,
		EntropyB:   entB,
	}, kept
}

// RuleSet is a serializable collection of learned rules together with the
// attribute type map needed to check targets.
type RuleSet struct {
	Rules []*Rule           `json:"rules"`
	Types map[string]string `json:"types"` // attribute -> semantic type
}

// NewRuleSet bundles rules with the training dataset's attribute types.
func NewRuleSet(rules []*Rule, d *dataset.Dataset) *RuleSet {
	types := make(map[string]string)
	for _, a := range d.Attributes() {
		types[a.Name] = string(a.Type)
	}
	return &RuleSet{Rules: rules, Types: types}
}

// Marshal serializes the rule set to JSON.
func (rs *RuleSet) Marshal() ([]byte, error) {
	return json.MarshalIndent(rs, "", "  ")
}
