package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEntropyUniform(t *testing.T) {
	h := Entropy(map[string]int{"a": 1, "b": 1})
	if !almostEqual(h, math.Ln2) {
		t.Fatalf("entropy of 50/50 = %v, want ln 2", h)
	}
}

func TestEntropySingleValue(t *testing.T) {
	if h := Entropy(map[string]int{"a": 10}); h != 0 {
		t.Fatalf("entropy of constant = %v, want 0", h)
	}
}

func TestEntropyEmpty(t *testing.T) {
	if h := Entropy(nil); h != 0 {
		t.Fatalf("entropy of empty = %v, want 0", h)
	}
	if h := Entropy(map[string]int{"a": 0}); h != 0 {
		t.Fatalf("entropy of zero-count = %v, want 0", h)
	}
}

func TestEntropyIgnoresNegativeCounts(t *testing.T) {
	h := Entropy(map[string]int{"a": 5, "bogus": -3})
	if h != 0 {
		t.Fatalf("entropy with negative count = %v, want 0 (single effective value)", h)
	}
}

func TestDefaultThresholdMatchesPaper(t *testing.T) {
	// The paper defines Ht as the entropy of a 90/10 two-value split.
	h := TwoValueEntropy(0.9)
	if math.Abs(h-DefaultEntropyThreshold) > 0.001 {
		t.Fatalf("TwoValueEntropy(0.9) = %v, want ~%v", h, DefaultEntropyThreshold)
	}
}

func TestTwoValueEntropyBoundary(t *testing.T) {
	if TwoValueEntropy(0) != 0 || TwoValueEntropy(1) != 0 {
		t.Fatal("degenerate distributions must have zero entropy")
	}
	if !almostEqual(TwoValueEntropy(0.5), math.Ln2) {
		t.Fatal("TwoValueEntropy(0.5) should be ln 2")
	}
}

func TestEntropyOfValues(t *testing.T) {
	h := EntropyOfValues([]string{"x", "x", "y", "y"})
	if !almostEqual(h, math.Ln2) {
		t.Fatalf("EntropyOfValues = %v, want ln 2", h)
	}
}

func TestEntropyProperties(t *testing.T) {
	// Property: entropy is non-negative and maximized by the uniform
	// distribution over the same support size.
	f := func(counts []uint8) bool {
		m := make(map[string]int)
		n := 0
		for i, c := range counts {
			if c == 0 {
				continue
			}
			m[string(rune('a'+i%26))+string(rune('0'+i/26))] += int(c)
			n++
		}
		h := Entropy(m)
		if h < 0 {
			return false
		}
		if len(m) > 0 && h > math.Log(float64(len(m)))+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestConfidenceAndSupport(t *testing.T) {
	if c := Confidence(9, 10); !almostEqual(c, 0.9) {
		t.Fatalf("confidence = %v", c)
	}
	if c := Confidence(0, 0); c != 0 {
		t.Fatalf("confidence with zero present = %v", c)
	}
	if s := SupportFraction(5, 50); !almostEqual(s, 0.1) {
		t.Fatalf("support fraction = %v", s)
	}
	if s := SupportFraction(5, 0); s != 0 {
		t.Fatalf("support fraction with zero total = %v", s)
	}
}

func TestICFOrdering(t *testing.T) {
	// Fewer distinct values => higher score, for the same sample size.
	stable := ICF(1, 100)
	volatile := ICF(50, 100)
	if stable <= volatile {
		t.Fatalf("ICF(1) = %v should exceed ICF(50) = %v", stable, volatile)
	}
	if ICF(0, 10) != 0 || ICF(10, 0) != 0 {
		t.Fatal("degenerate ICF inputs must be 0")
	}
}

func TestMajorityValue(t *testing.T) {
	v, f, ok := MajorityValue([]string{"on", "on", "off"})
	if !ok || v != "on" || !almostEqual(f, 2.0/3.0) {
		t.Fatalf("majority = %q %v %v", v, f, ok)
	}
	if _, _, ok := MajorityValue(nil); ok {
		t.Fatal("empty sample should report !ok")
	}
	// Tie breaks lexicographically.
	v, _, _ = MajorityValue([]string{"b", "a"})
	if v != "a" {
		t.Fatalf("tie-break majority = %q, want a", v)
	}
}

func TestCardinality(t *testing.T) {
	if c := Cardinality([]string{"a", "b", "a"}); c != 2 {
		t.Fatalf("cardinality = %d", c)
	}
	if c := Cardinality(nil); c != 0 {
		t.Fatalf("cardinality of nil = %d", c)
	}
}

func TestMeanStdDev(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); !almostEqual(m, 2) {
		t.Fatalf("mean = %v", m)
	}
	if s := StdDev([]float64{2, 2, 2}); s != 0 {
		t.Fatalf("stddev of constant = %v", s)
	}
	if s := StdDev(nil); s != 0 {
		t.Fatalf("stddev of empty = %v", s)
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]string{"x", "x", "y"})
	if h["x"] != 2 || h["y"] != 1 {
		t.Fatalf("histogram = %v", h)
	}
}
