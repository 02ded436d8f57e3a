// Package stats provides the statistical primitives EnCore uses for rule
// filtering and warning ranking: Shannon entropy over observed values,
// support and confidence of candidate rules, and the inverse change
// frequency (ICF) heuristic used to rank suspicious values.
package stats

import "math"

// DefaultEntropyThreshold is Ht from the paper: the entropy of a two-valued
// distribution with probabilities 0.9 and 0.1. Attributes whose value
// entropy does not exceed this threshold are considered too stable to carry
// interesting rules.
const DefaultEntropyThreshold = 0.325

// Entropy returns the Shannon entropy (natural log) of the value
// distribution described by counts. Zero counts are ignored; an empty or
// all-zero histogram has entropy 0.
func Entropy(counts map[string]int) float64 {
	total := 0
	for _, c := range counts {
		if c > 0 {
			total += c
		}
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c <= 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log(p)
	}
	return h
}

// EntropyOfValues computes Entropy over a raw sample of values.
func EntropyOfValues(values []string) float64 {
	counts := make(map[string]int, len(values))
	for _, v := range values {
		counts[v]++
	}
	return Entropy(counts)
}

// TwoValueEntropy returns the entropy of a Bernoulli-like distribution with
// the given probability p for one value and 1-p for the other. It is the
// function used to derive DefaultEntropyThreshold (p = 0.9).
func TwoValueEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	q := 1 - p
	return -p*math.Log(p) - q*math.Log(q)
}

// Support is the absolute number of training samples in which all
// attributes participating in a rule are present.
func Support(present, total int) int {
	_ = total
	return present
}

// SupportFraction is the fraction of training samples in which the rule's
// attributes co-occur.
func SupportFraction(present, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(present) / float64(total)
}

// Confidence is the fraction of co-occurring samples in which the rule's
// relation actually holds.
func Confidence(valid, present int) float64 {
	if present == 0 {
		return 0
	}
	return float64(valid) / float64(present)
}

// Cardinality returns the number of distinct values in the sample.
func Cardinality(values []string) int {
	seen := make(map[string]struct{}, len(values))
	for _, v := range values {
		seen[v] = struct{}{}
	}
	return len(seen)
}

// ICF computes the inverse change frequency score for an attribute given
// the number of distinct values it took in the training set. Attributes
// with fewer distinct historical values get higher scores, so a deviation
// on a historically stable attribute ranks above a deviation on a volatile
// one.
func ICF(distinctValues, samples int) float64 {
	if distinctValues <= 0 || samples <= 0 {
		return 0
	}
	return math.Log(1+float64(samples)) / float64(distinctValues)
}

// Histogram counts occurrences of each value.
func Histogram(values []string) map[string]int {
	h := make(map[string]int, len(values))
	for _, v := range values {
		h[v]++
	}
	return h
}

// MajorityValue returns the most common value and its frequency fraction.
// Ties break lexicographically for determinism. ok is false for an empty
// sample.
func MajorityValue(values []string) (value string, frac float64, ok bool) {
	if len(values) == 0 {
		return "", 0, false
	}
	h := Histogram(values)
	best := ""
	bestN := -1
	for v, n := range h {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best, float64(bestN) / float64(len(values)), true
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	v := 0.0
	for _, x := range xs {
		d := x - m
		v += d * d
	}
	return math.Sqrt(v / float64(len(xs)))
}
