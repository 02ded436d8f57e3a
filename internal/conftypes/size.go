package conftypes

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseSize converts a size literal ("16M", "1g", "8K", "512", "2GB") to a
// byte count. Plain numbers are accepted as raw bytes, matching how MySQL
// and PHP interpret suffix-less size options. A size whose byte count
// overflows int64 does not parse.
func ParseSize(v string) (int64, bool) {
	s := strings.TrimSpace(v)
	if s == "" {
		return 0, false
	}
	s = strings.TrimSuffix(strings.TrimSuffix(s, "B"), "b")
	mult := int64(1)
	if len(s) > 0 {
		switch s[len(s)-1] {
		case 'K', 'k':
			mult, s = 1<<10, s[:len(s)-1]
		case 'M', 'm':
			mult, s = 1<<20, s[:len(s)-1]
		case 'G', 'g':
			mult, s = 1<<30, s[:len(s)-1]
		case 'T', 't':
			mult, s = 1<<40, s[:len(s)-1]
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, false
	}
	return n * mult, true
}

// FormatSize renders a byte count with the largest suffix that divides it
// exactly, so ParseSize(FormatSize(n)) == n.
func FormatSize(bytes int64) string {
	switch {
	case bytes >= 1<<40 && bytes%(1<<40) == 0:
		return fmt.Sprintf("%dT", bytes>>40)
	case bytes >= 1<<30 && bytes%(1<<30) == 0:
		return fmt.Sprintf("%dG", bytes>>30)
	case bytes >= 1<<20 && bytes%(1<<20) == 0:
		return fmt.Sprintf("%dM", bytes>>20)
	case bytes >= 1<<10 && bytes%(1<<10) == 0:
		return fmt.Sprintf("%dK", bytes>>10)
	default:
		return strconv.FormatInt(bytes, 10)
	}
}
