package conftypes

import (
	"strings"

	"repro/internal/sysimage"
)

// Sample is one observed value together with the image it was observed in,
// so semantic verification can consult the right environment.
type Sample struct {
	Value string
	Image *sysimage.Image
}

// Inferencer assigns semantic types to configuration entries. Custom type
// definitions (registered via AddCustom) take priority over the predefined
// ones, in registration order, exactly as the customization interface in
// the paper specifies.
type Inferencer struct {
	custom     []*Def
	predefined []*Def

	// MatchFraction is the minimum fraction of samples whose value must
	// pass the syntactic match for a type to remain a candidate.
	MatchFraction float64
	// VerifyFraction is the minimum fraction of syntactically matching
	// samples that must also pass semantic verification.
	VerifyFraction float64
}

// NewInferencer returns an Inferencer with the predefined types of Table 4
// and the default acceptance thresholds.
func NewInferencer() *Inferencer {
	return &Inferencer{
		predefined:     Predefined(),
		MatchFraction:  0.8,
		VerifyFraction: 0.8,
	}
}

// AddCustom registers a user-defined type; custom types are tried before
// every predefined type, in the order added.
func (inf *Inferencer) AddCustom(def *Def) {
	inf.custom = append(inf.custom, def)
}

// Defs returns all definitions in priority order.
func (inf *Inferencer) Defs() []*Def {
	out := make([]*Def, 0, len(inf.custom)+len(inf.predefined))
	out = append(out, inf.custom...)
	out = append(out, inf.predefined...)
	return out
}

// Def returns the definition for a type name, or nil. Custom defs shadow
// predefined ones, matching the Defs() order; no slice is built — this
// sits on the plan-compile path, once per attribute.
func (inf *Inferencer) Def(t Type) *Def {
	for _, d := range inf.custom {
		if d.Name == t {
			return d
		}
	}
	for _, d := range inf.predefined {
		if d.Name == t {
			return d
		}
	}
	return nil
}

// InferEntry infers the semantic type of a configuration entry from its
// observed samples across the training set.
//
// Booleans are decided first from the entry's complete value set (an entry
// whose every observed value belongs to the boolean lexicon is Boolean —
// including all-0/1 integer entries, reproducing the paper's measured
// false-type source). Then each type definition is tried in priority
// order: syntactic match on the required fraction of samples, followed by
// semantic verification where the type defines one. Entries matching
// nothing degrade to Number (if fully numeric) or String.
func (inf *Inferencer) InferEntry(samples []Sample) Type {
	if len(samples) == 0 {
		return TypeString
	}
	allBool := true
	for _, s := range samples {
		if !IsBooleanWord(s.Value) {
			allBool = false
			break
		}
	}
	if allBool {
		return TypeBoolean
	}
	for _, def := range inf.Defs() {
		matched := 0
		verified := 0
		for _, s := range samples {
			if s.Value == "" || !def.Match(s.Value) {
				continue
			}
			matched++
			if def.Verify == nil || def.Verify(s.Value, s.Image) {
				verified++
			}
		}
		if matched == 0 {
			continue
		}
		nonEmpty := 0
		for _, s := range samples {
			if s.Value != "" {
				nonEmpty++
			}
		}
		if nonEmpty == 0 {
			continue
		}
		if float64(matched)/float64(nonEmpty) < inf.MatchFraction {
			continue
		}
		if def.Verify != nil && float64(verified)/float64(matched) < inf.VerifyFraction {
			continue
		}
		return def.Name
	}
	numeric := 0
	for _, s := range samples {
		if s.Value == "" {
			continue
		}
		if !reNumber.MatchString(s.Value) {
			return TypeString
		}
		numeric++
	}
	if numeric > 0 {
		return TypeNumber
	}
	return TypeString
}

// InferEntryNamed infers the entry's type like InferEntry and then applies
// entry-name disambiguation for the user/group ambiguity: an account name
// that exists as both a user and a group satisfies the UserName pattern
// first by priority, but when the entry's own name says "group" (Apache's
// Group, MySQL's innodb groups) and every sample verifies as a group, the
// semantic type is GroupName. Entry names carry exactly this kind of
// signal the paper's taxonomy source exploits.
func (inf *Inferencer) InferEntryNamed(name string, samples []Sample) Type {
	t := inf.InferEntry(samples)
	if t != TypeUserName || !strings.Contains(strings.ToLower(name), "group") {
		return t
	}
	for _, s := range samples {
		if s.Value == "" {
			continue
		}
		if s.Image == nil || !s.Image.GroupExists(s.Value) {
			return t
		}
	}
	return TypeGroupName
}

// InferValue infers a type for a single value in the context of one image.
// It is the path the anomaly detector uses when a target entry was never
// seen in training.
func (inf *Inferencer) InferValue(value string, img *sysimage.Image) Type {
	return inf.InferEntry([]Sample{{Value: value, Image: img}})
}

// CheckValue validates a target value against a previously inferred type.
// It returns (syntacticOK, semanticOK). A type with no verifier reports
// semanticOK == syntacticOK. Trivial types always pass.
func (inf *Inferencer) CheckValue(t Type, value string, img *sysimage.Image) (syntacticOK, semanticOK bool) {
	switch t {
	case TypeString, "":
		return true, true
	case TypeBoolean:
		ok := IsBooleanWord(value)
		return ok, ok
	case TypeEnum:
		return true, true
	}
	def := inf.Def(t)
	if def == nil {
		return true, true
	}
	if !def.Match(value) {
		return false, false
	}
	if def.Verify == nil {
		return true, true
	}
	return true, def.Verify(value, img)
}

// LooksLikeRegexOrGlob reports whether a value uses wildcard or regex
// metacharacters. The paper notes such values (index specifications,
// LogFormat patterns) are a main source of inference error; the assembler
// uses this to skip semantic verification for them. It runs on every
// value of every checked image, so it is a byte switch rather than
// strings.ContainsAny, which builds its character set per call; the set
// is ASCII, so the two agree on every input.
func LooksLikeRegexOrGlob(v string) bool {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '*', '?', '[', ']', '^', '$', '(', ')', '%', '{', '}':
			return true
		}
	}
	return false
}
