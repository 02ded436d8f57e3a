// Package templates defines EnCore's rule templates: typed relation
// patterns that guide rule inference (Section 5.1, Table 6).
//
// A template is not a rule — it is a *pattern of correlation* between two
// typed placeholders, together with a validation method that decides
// whether a concrete attribute pair satisfies the relation on one system.
// The learner instantiates each template over every eligible attribute pair
// (eligibility is decided by semantic type, which is what keeps the search
// tractable) and keeps instantiations that hold with high confidence across
// the training set.
package templates

import (
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/conftypes"
	"repro/internal/dataset"
	"repro/internal/sysimage"
)

// Ctx is the evaluation context for one system: its dataset row and the
// system image environment (for validators that consult the file system,
// accounts, or services).
//
// Validators receive the attribute instances as arguments and read only
// Image; no validator reads Row. Row is how the legacy Detector and the
// rules engine fetch those instances, and the compiled check plan's Row
// carries only SystemID.
type Ctx struct {
	Row   *dataset.Row
	Image *sysimage.Image
}

// Validator decides whether the relation holds between the instances of
// attribute A and attribute B on one system. applicable=false means the
// system gives no evidence either way (e.g. values unparsable for the
// relation, or no environment available) and the system is excluded from
// the confidence denominator.
type Validator func(a, b []string, ctx *Ctx) (holds, applicable bool)

// Template is one rule pattern.
type Template struct {
	// ID is a short stable identifier ("owner", "num-lt", ...).
	ID string
	// Spec is the display form, e.g. "[A:FilePath] => [B:UserName]".
	Spec string
	// Description explains the relation in prose (Table 6).
	Description string
	// TypesA and TypesB are the eligible semantic types for each
	// placeholder.
	TypesA, TypesB []conftypes.Type
	// SameType additionally requires both attributes to share one concrete
	// type (the "same type" templates).
	SameType bool
	// Symmetric relations are deduplicated (only A < B lexicographically
	// is instantiated).
	Symmetric bool
	// AllowAugmented permits augmented attributes to fill placeholders.
	AllowAugmented bool
	// Validate is the relation's validation method.
	Validate Validator
}

// EligibleA reports whether an attribute may fill placeholder A.
func (t *Template) EligibleA(a dataset.Attribute) bool {
	return t.eligible(a, t.TypesA)
}

// EligibleB reports whether an attribute may fill placeholder B.
func (t *Template) EligibleB(a dataset.Attribute) bool {
	return t.eligible(a, t.TypesB)
}

func (t *Template) eligible(a dataset.Attribute, types []conftypes.Type) bool {
	if a.Augmented && !t.AllowAugmented {
		return false
	}
	for _, ty := range types {
		if a.Type == ty {
			return true
		}
	}
	return false
}

func first(vs []string) (string, bool) {
	if len(vs) == 0 {
		return "", false
	}
	return vs[0], true
}

// normBool maps the boolean lexicon to true/false, ignoring case; ok=false
// for non-boolean words. It runs for both values of every bool-implies
// candidate row, so ASCII input is folded in a stack buffer instead of
// allocating a lowered copy. Other input goes through strings.ToLower
// first, whose Unicode mappings can land on the lexicon (U+0130 lowers to
// 'i'), so the answer is strings.ToLower's for every input.
func normBool(v string) (bool, bool) {
	for i := 0; i < len(v); i++ {
		if v[i] >= utf8.RuneSelf {
			v = strings.ToLower(v)
			break
		}
	}
	var buf [len("disabled")]byte // the longest lexicon word
	if len(v) > len(buf) {
		return false, false
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	switch string(buf[:len(v)]) {
	case "on", "true", "yes", "1", "enabled":
		return true, true
	case "off", "false", "no", "0", "disabled", "none":
		return false, true
	default:
		return false, false
	}
}

// identityTypes are the types over which the same-type equality templates
// range. Trivial strings and numbers are excluded: equality over them is
// the frequent-item-set noise the paper moves away from.
var identityTypes = []conftypes.Type{
	conftypes.TypeFilePath, conftypes.TypeUserName, conftypes.TypeGroupName,
	conftypes.TypeIPAddress, conftypes.TypePortNumber, conftypes.TypeFileName,
}

// Predefined returns the 11 predefined templates of Table 6.
func Predefined() []*Template {
	return []*Template{
		{
			ID:          "eq",
			Spec:        "[A] == [B]",
			Description: "An entry should be equal to another entry of the same type",
			TypesA:      identityTypes, TypesB: identityTypes,
			SameType: true, Symmetric: true,
			Validate: func(a, b []string, _ *Ctx) (bool, bool) {
				va, oka := first(a)
				vb, okb := first(b)
				if !oka || !okb {
					return false, false
				}
				return va == vb, true
			},
		},
		{
			ID:          "match-one",
			Spec:        "[A] = [B]",
			Description: "One instance of an entry should equal at least one instance of another entry of the same type",
			TypesA:      identityTypes, TypesB: identityTypes,
			SameType: true, Symmetric: false,
			Validate: func(a, b []string, _ *Ctx) (bool, bool) {
				if len(a) == 0 || len(b) == 0 {
					return false, false
				}
				set := make(map[string]bool, len(b))
				for _, v := range b {
					set[v] = true
				}
				for _, v := range a {
					if set[v] {
						return true, true
					}
				}
				return false, true
			},
		},
		{
			ID:             "bool-implies",
			Spec:           "[A:Boolean] -> [B:Boolean]",
			Description:    "A boolean entry implies a boolean (often augmented) attribute",
			TypesA:         []conftypes.Type{conftypes.TypeBoolean},
			TypesB:         []conftypes.Type{conftypes.TypeBoolean},
			AllowAugmented: true,
			Validate: func(a, b []string, _ *Ctx) (bool, bool) {
				va, oka := first(a)
				vb, okb := first(b)
				if !oka || !okb {
					return false, false
				}
				ba, oka := normBool(va)
				bb, okb := normBool(vb)
				if !oka || !okb {
					return false, false
				}
				return !ba || bb, true
			},
		},
		{
			ID:          "subnet",
			Spec:        "[A:IPAddress] < [B:IPAddress]",
			Description: "An IP address entry is within the subnet of another",
			TypesA:      []conftypes.Type{conftypes.TypeIPAddress},
			TypesB:      []conftypes.Type{conftypes.TypeIPAddress},
			Validate: func(a, b []string, _ *Ctx) (bool, bool) {
				va, oka := first(a)
				vb, okb := first(b)
				if !oka || !okb {
					return false, false
				}
				return sameSubnet(va, vb), true
			},
		},
		{
			ID:          "concat",
			Spec:        "[A:FilePath] + [B:PartialFilePath] => exists",
			Description: "Concatenating a file path entry with a partial file path entry forms a full path that exists",
			TypesA:      []conftypes.Type{conftypes.TypeFilePath},
			TypesB:      []conftypes.Type{conftypes.TypePartialFilePath},
			Validate: func(a, b []string, ctx *Ctx) (bool, bool) {
				if ctx.Image == nil || len(a) == 0 || len(b) == 0 {
					return false, false
				}
				for _, part := range b {
					found := false
					for _, root := range a {
						if ctx.Image.Exists(strings.TrimSuffix(root, "/") + "/" + part) {
							found = true
							break
						}
					}
					if !found {
						return false, true
					}
				}
				return true, true
			},
		},
		{
			ID:          "substr",
			Spec:        "[A] substr [B]",
			Description: "An entry is a substring of another entry",
			TypesA:      []conftypes.Type{conftypes.TypeFilePath, conftypes.TypeString},
			TypesB:      []conftypes.Type{conftypes.TypeFilePath, conftypes.TypeString},
			SameType:    true,
			Validate: func(a, b []string, _ *Ctx) (bool, bool) {
				va, oka := first(a)
				vb, okb := first(b)
				// A substring of one character ("/" in any path) holds
				// vacuously and would generate pure noise; such pairs are
				// not evidence either way.
				if !oka || !okb || len(va) < 2 {
					return false, false
				}
				return va != vb && strings.Contains(vb, va), true
			},
		},
		{
			ID:          "user-group",
			Spec:        "[A:UserName] in [B:GroupName]",
			Description: "The user name belongs to the group name",
			TypesA:      []conftypes.Type{conftypes.TypeUserName},
			TypesB:      []conftypes.Type{conftypes.TypeGroupName},
			Validate: func(a, b []string, ctx *Ctx) (bool, bool) {
				va, oka := first(a)
				vb, okb := first(b)
				if !oka || !okb || ctx.Image == nil {
					return false, false
				}
				return ctx.Image.UserInGroup(va, vb), true
			},
		},
		{
			ID:          "not-access",
			Spec:        "[A:FilePath] != [B:UserName]",
			Description: "The file path is not accessible by the user specified in the entry",
			TypesA:      []conftypes.Type{conftypes.TypeFilePath},
			TypesB:      []conftypes.Type{conftypes.TypeUserName},
			Validate: func(a, b []string, ctx *Ctx) (bool, bool) {
				va, oka := first(a)
				vb, okb := first(b)
				if !oka || !okb || ctx.Image == nil {
					return false, false
				}
				if !ctx.Image.Exists(va) || !ctx.Image.UserExists(vb) {
					return false, false
				}
				return !ctx.Image.Accessible(vb, va), true
			},
		},
		{
			ID:          "owner",
			Spec:        "[A:FilePath] => [B:UserName]",
			Description: "The entry of UserName is the owner of the file path specified in the entry",
			TypesA:      []conftypes.Type{conftypes.TypeFilePath},
			TypesB:      []conftypes.Type{conftypes.TypeUserName},
			Validate: func(a, b []string, ctx *Ctx) (bool, bool) {
				va, oka := first(a)
				vb, okb := first(b)
				if !oka || !okb || ctx.Image == nil {
					return false, false
				}
				fm := ctx.Image.Resolve(va)
				if fm == nil {
					return false, false
				}
				return fm.Owner == vb, true
			},
		},
		{
			ID:          "num-lt",
			Spec:        "[A:Number] < [B:Number]",
			Description: "The number in one entry is less than that of the other entry",
			TypesA:      []conftypes.Type{conftypes.TypeNumber, conftypes.TypePortNumber},
			TypesB:      []conftypes.Type{conftypes.TypeNumber, conftypes.TypePortNumber},
			Validate: func(a, b []string, _ *Ctx) (bool, bool) {
				va, oka := first(a)
				vb, okb := first(b)
				if !oka || !okb {
					return false, false
				}
				fa, erra := strconv.ParseFloat(va, 64)
				fb, errb := strconv.ParseFloat(vb, 64)
				if erra != nil || errb != nil {
					return false, false
				}
				return fa < fb, true
			},
		},
		{
			ID:             "size-lt",
			Spec:           "[A:Size] < [B:Size]",
			Description:    "The size in one entry is smaller than that of the other entry",
			TypesA:         []conftypes.Type{conftypes.TypeSize},
			TypesB:         []conftypes.Type{conftypes.TypeSize},
			AllowAugmented: true,
			Validate: func(a, b []string, _ *Ctx) (bool, bool) {
				va, oka := first(a)
				vb, okb := first(b)
				if !oka || !okb {
					return false, false
				}
				na, oka := conftypes.ParseSize(va)
				nb, okb := conftypes.ParseSize(vb)
				if !oka || !okb {
					return false, false
				}
				return na < nb, true
			},
		},
	}
}

// ByID returns the predefined template with the given ID, or nil.
func ByID(id string) *Template {
	for _, t := range Predefined() {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// sameSubnet reports whether two IPv4 addresses share a /24 prefix, or the
// second address is the wildcard.
func sameSubnet(a, b string) bool {
	if b == "0.0.0.0" || b == "::" {
		return true
	}
	pa := strings.Split(a, ".")
	pb := strings.Split(b, ".")
	if len(pa) != 4 || len(pb) != 4 {
		return false
	}
	return pa[0] == pb[0] && pa[1] == pb[1] && pa[2] == pb[2]
}
