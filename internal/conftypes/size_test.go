package conftypes

import (
	"math"
	"math/big"
	"strconv"
	"testing"
	"testing/quick"
)

func TestParseSizeUnits(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"512", 512, true},
		{"8K", 8 << 10, true},
		{"8k", 8 << 10, true},
		{"16M", 16 << 20, true},
		{"16MB", 16 << 20, true},
		{"2G", 2 << 30, true},
		{"1T", 1 << 40, true},
		{"3KB", 3 << 10, true},
		{" 4M ", 4 << 20, true},
		{"", 0, false},
		{"abc", 0, false},
		{"-1", 0, false},
		{"12X", 0, false},
		{"M", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseSize(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("ParseSize(%q) = %d %v, want %d %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestFormatSizeLargestExactUnit(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0"},
		{512, "512"},
		{1 << 10, "1K"},
		{16 << 20, "16M"},
		{3 << 30, "3G"},
		{2 << 40, "2T"},
		{(1 << 20) + 1, "1048577"}, // not exactly divisible: raw bytes
		{1536, "1536"},             // 1.5K is not exact in integer units
	}
	for _, c := range cases {
		if got := FormatSize(c.in); got != c.want {
			t.Errorf("FormatSize(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Property: ParseSize inverts FormatSize for every non-negative count.
func TestSizeRoundTripProperty(t *testing.T) {
	f := func(n int64) bool {
		if n < 0 {
			n = -n
		}
		n %= 1 << 50
		got, ok := ParseSize(FormatSize(n))
		return ok && got == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding a suffix multiplies by the right power of 1024.
func TestSizeSuffixProperty(t *testing.T) {
	f := func(n uint16) bool {
		base := int64(n)
		k, ok1 := ParseSize(FormatSize(base << 10))
		m, ok2 := ParseSize(FormatSize(base << 20))
		return ok1 && ok2 && k == base<<10 && m == base<<20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestParseSizeOverflow checks sizes on both sides of the int64 limit
// for every unit against a math/big oracle: a size parses iff its byte
// count fits in int64, and then to exactly that count. An overflowing
// size must not parse, or it would wrap to a negative count that sorts
// below every real size.
func TestParseSizeOverflow(t *testing.T) {
	units := []struct {
		suffix string
		mult   int64
	}{{"", 1}, {"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"T", 1 << 40}}
	limit := big.NewInt(math.MaxInt64)
	for _, u := range units {
		edge := math.MaxInt64 / u.mult
		for _, n := range []int64{0, 1, edge - 1, edge, edge + 1, math.MaxInt64 / 2, math.MaxInt64} {
			if n < 0 {
				continue
			}
			in := strconv.FormatInt(n, 10) + u.suffix
			want := new(big.Int).Mul(big.NewInt(n), big.NewInt(u.mult))
			wantOK := want.Cmp(limit) <= 0
			got, ok := ParseSize(in)
			if ok != wantOK || ok && got != want.Int64() {
				t.Errorf("ParseSize(%q) = %d %v, want %v %v", in, got, ok, want, wantOK)
			}
		}
	}
	for in, wantOK := range map[string]bool{"8388607T": true, "8388608T": false, "9223372036854775807K": false} {
		if _, ok := ParseSize(in); ok != wantOK {
			t.Errorf("ParseSize(%q) ok = %v, want %v", in, ok, wantOK)
		}
	}
}
