// Package baseline implements the two comparison detectors of Table 8.
//
// Baseline is a value-comparison detector in the spirit of PeerPressure /
// Strider: for every configuration entry it compares the target's value
// against the value distribution in the training set and flags values that
// deviate, ranked by how stable the entry historically was. It sees only
// the textual values of configuration entries — no environment, no
// correlations.
//
// BaselineEnv is the same statistical detector run over the
// environment-augmented attribute set ("Baseline+Env" in the paper): it
// additionally compares the augmented attributes (datadir.owner,
// extension_dir.type, ...), so purely environmental deviations become
// visible, but it still knows nothing about correlations between entries.
package baseline

import (
	"fmt"
	"sort"

	"repro/internal/assemble"
	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/sysimage"
)

// Finding is one flagged deviation.
type Finding struct {
	Attr    string
	Value   string
	Message string
	Score   float64
	Rank    int
}

// Detector is a value-comparison misconfiguration detector.
type Detector struct {
	Training *dataset.Dataset
	// IncludeAugmented switches between Baseline (false) and Baseline+Env
	// (true).
	IncludeAugmented bool
	// MaxCardinality is the peer-agreement gate: a deviation is only
	// flagged when the training set showed at most this many distinct
	// values for the entry. This models PeerPressure's statistical
	// behaviour — when peers disagree wildly (file paths!), a new value is
	// not evidence of sickness, which is exactly the limitation the paper
	// exploits.
	MaxCardinality int
	Assembler      *assemble.Assembler
}

// DefaultMaxCardinality is the default peer-agreement gate: entries with at
// most this many distinct training values are considered concentrated
// enough that a deviation is significant.
const DefaultMaxCardinality = 2

// NewBaseline returns the plain value-comparison detector.
func NewBaseline(training *dataset.Dataset) *Detector {
	return &Detector{Training: training, MaxCardinality: DefaultMaxCardinality, Assembler: assemble.New()}
}

// NewBaselineEnv returns the environment-aware value-comparison detector.
func NewBaselineEnv(training *dataset.Dataset) *Detector {
	return &Detector{Training: training, IncludeAugmented: true, MaxCardinality: DefaultMaxCardinality, Assembler: assemble.New()}
}

// Check assembles the target and reports value deviations ranked by
// inverse change frequency.
func (b *Detector) Check(img *sysimage.Image) ([]*Finding, error) {
	target, err := b.Assembler.AssembleTarget(img, b.Training)
	if err != nil {
		return nil, err
	}
	row := target.Rows[0]
	samples := len(b.Training.Rows)

	var findings []*Finding
	row.Each(func(attr string, values []string) {
		a, ok := b.Training.Attr(attr)
		if !ok {
			// An entry absent from the peer database has no value
			// distribution to compare against; the statistical model has
			// nothing to say about it (misspelled entries therefore
			// escape the baselines entirely).
			return
		}
		if a.Augmented && !b.IncludeAugmented {
			return
		}
		if b.Training.Present(attr) == 0 {
			return
		}
		seen := b.Training.Histogram(attr)
		if b.MaxCardinality > 0 && len(seen) > b.MaxCardinality {
			return // peers disagree: a new value is not anomalous
		}
		for _, v := range values {
			if seen[v] > 0 {
				continue
			}
			icf := stats.ICF(len(seen), samples)
			findings = append(findings, &Finding{
				Attr:    attr,
				Value:   v,
				Message: fmt.Sprintf("value %q of %s deviates from all %d training systems", v, attr, samples),
				Score:   icf,
			})
		}
	})
	sort.SliceStable(findings, func(i, j int) bool {
		if findings[i].Score != findings[j].Score {
			return findings[i].Score > findings[j].Score
		}
		return findings[i].Attr < findings[j].Attr
	})
	for i, f := range findings {
		f.Rank = i + 1
	}
	return findings, nil
}

func first(vs []string) string {
	if len(vs) == 0 {
		return ""
	}
	return vs[0]
}

// Flagged reports whether any finding concerns the attribute.
func Flagged(findings []*Finding, attr string) bool {
	for _, f := range findings {
		if f.Attr == attr {
			return true
		}
	}
	return false
}

// FlaggedPrefix reports whether any finding concerns the attribute or one
// of its augmented attributes (attr + "." + suffix).
func FlaggedPrefix(findings []*Finding, attr string) bool {
	for _, f := range findings {
		if f.Attr == attr || (len(f.Attr) > len(attr) && f.Attr[:len(attr)] == attr && f.Attr[len(attr)] == '.') {
			return true
		}
	}
	return false
}
