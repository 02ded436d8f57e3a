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
	// Interp, when set, marks a value-only template: its verdict on a
	// system reads nothing but the first value on each side, read under
	// Interp, and Validate is built from that interpretation. The rule
	// engine then interprets each distinct value of a column once instead
	// of calling Validate per row.
	Interp Interpretation
	// Validate is the relation's validation method.
	Validate Validator
}

// Interpretation names what a value-only template reads each operand's
// first value as, and with it the template's relation. A value that does
// not read under the interpretation gives no evidence (the system is not
// applicable).
type Interpretation uint8

const (
	// Uninterpreted templates compare strings or whole instance lists, or
	// consult the environment; only their Validate knows the relation.
	Uninterpreted Interpretation = iota
	// AsBool reads the boolean lexicon (conftypes.ParseBool); the relation
	// is A implies B.
	AsBool
	// AsNumber reads a float (Number); the relation is A < B.
	AsNumber
	// AsSize reads a byte size (conftypes.ParseSize); the relation is
	// A < B.
	AsSize
)

// Number is AsNumber's interpretation: strconv.ParseFloat. NaN and the
// infinities read; they compare as IEEE floats do.
func Number(v string) (float64, bool) {
	f, err := strconv.ParseFloat(v, 64)
	return f, err == nil
}

func implies(a, b bool) bool { return !a || b }

func less[T float64 | int64](a, b T) bool { return a < b }

// valueOnly builds a value-only template's Validate: the first value on
// each side, read by interpret, related by holds. Every caller that checks
// such a template one system at a time — the check plan, delta inference,
// the serial oracle, the legacy detector — runs this one function.
func valueOnly[T any](interpret func(string) (T, bool), holds func(a, b T) bool) Validator {
	return func(a, b []string, _ *Ctx) (bool, bool) {
		va, oka := first(a)
		vb, okb := first(b)
		if !oka || !okb {
			return false, false
		}
		ma, oka := interpret(va)
		mb, okb := interpret(vb)
		if !oka || !okb {
			return false, false
		}
		return holds(ma, mb), true
	}
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
			Interp:         AsBool,
			Validate:       valueOnly(conftypes.ParseBool, implies),
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
						if ctx.Image.ExistsJoined(root, part) {
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
			Interp:      AsNumber,
			Validate:    valueOnly(Number, less[float64]),
		},
		{
			ID:             "size-lt",
			Spec:           "[A:Size] < [B:Size]",
			Description:    "The size in one entry is smaller than that of the other entry",
			TypesA:         []conftypes.Type{conftypes.TypeSize},
			TypesB:         []conftypes.Type{conftypes.TypeSize},
			AllowAugmented: true,
			Interp:         AsSize,
			Validate:       valueOnly(conftypes.ParseSize, less[int64]),
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
