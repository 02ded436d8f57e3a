// Package profile serializes learned knowledge — attribute declarations,
// per-attribute value histograms, and the inferred rules — into a single
// portable document.
//
// The paper notes that "since the checking and the learning are cleanly
// separated, the learned rules can be reused to check different systems".
// A Profile is that separation made concrete: it carries exactly the plan
// spec a check plan is built from (see Spec), so a target can be checked
// on a machine that never saw (and is never shipped) the training images.
package profile

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/conftypes"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/rules"
)

// AttrProfile is one attribute's learned summary.
type AttrProfile struct {
	Name      string         `json:"name"`
	Type      string         `json:"type"`
	Augmented bool           `json:"augmented,omitempty"`
	Present   int            `json:"present"`
	Histogram map[string]int `json:"histogram,omitempty"`
}

// Profile is the serializable learned knowledge.
type Profile struct {
	// Samples is the training-population size.
	Samples int           `json:"samples"`
	Attrs   []AttrProfile `json:"attrs"`
	Rules   []*rules.Rule `json:"rules"`
}

// Build summarizes a training dataset and its learned rules. Presence and
// histograms are read off the dataset's columnar index.
func Build(training *dataset.Dataset, learned []*rules.Rule) *Profile {
	p := &Profile{Samples: len(training.Rows()), Rules: learned}
	ix := training.Index()
	for _, a := range training.Attributes() {
		p.Attrs = append(p.Attrs, AttrProfile{
			Name:      a.Name,
			Type:      string(a.Type),
			Augmented: a.Augmented,
			Present:   ix.Present(a.Name),
			Histogram: ix.Histogram(a.Name),
		})
	}
	return p
}

// Spec returns the plan spec the profile describes: attributes in profile
// order, one type declaration per attribute, and the rules as given — the
// spec detect.SpecFromDataset derives from the training set the profile
// was built from.
func (p *Profile) Spec() *detect.PlanSpec {
	spec := &detect.PlanSpec{
		Samples: p.Samples,
		Attrs:   make([]detect.PlanSpecAttr, len(p.Attrs)),
		Types:   make([]detect.PlanSpecType, len(p.Attrs)),
		Rules:   p.Rules,
	}
	for i, a := range p.Attrs {
		decl := dataset.Attribute{Name: a.Name, Type: conftypes.Type(a.Type), Augmented: a.Augmented}
		spec.Attrs[i] = detect.SpecAttr(decl, a.Present, a.Histogram)
		spec.Types[i] = detect.PlanSpecType{Name: decl.Name, Type: decl.Type}
	}
	return spec
}

// Marshal serializes the profile to JSON.
func (p *Profile) Marshal() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// maxCount bounds every count a profile carries into a plan: the binary
// plan format reads counts up to MaxInt64/2, so an accepted profile always
// compiles to a plan that encodes and decodes back to the same bytes.
const maxCount = math.MaxInt64 / 2

// Unmarshal parses a serialized profile. A profile is untrusted input (the
// daemon takes it over the network), so Unmarshal also rejects what no
// learned profile holds and no plan can carry: a null rule, and a sample
// count, histogram count or rule count that is negative or beyond
// maxCount.
func Unmarshal(data []byte) (*Profile, error) {
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if !validCount(p.Samples) {
		return nil, fmt.Errorf("profile: samples %d out of range", p.Samples)
	}
	for _, a := range p.Attrs {
		for _, n := range a.Histogram {
			if !validCount(n) {
				return nil, fmt.Errorf("profile: attribute %q has a histogram count out of range", a.Name)
			}
		}
	}
	for i, r := range p.Rules {
		if r == nil {
			return nil, fmt.Errorf("profile: rule %d is null", i)
		}
		if !validCount(r.Support) || !validCount(r.Valid) {
			return nil, fmt.Errorf("profile: rule %d (%s) has a support or valid count out of range", i, r.Key())
		}
	}
	return &p, nil
}

func validCount(n int) bool { return n >= 0 && n <= maxCount }
