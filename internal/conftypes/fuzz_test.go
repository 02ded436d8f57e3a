package conftypes

import (
	"strconv"
	"testing"
)

// FuzzPortNumber holds Atoi, and the PortNumber matcher built on it, to
// the plain strconv.Atoi forms they replace: the syntax precheck may only
// skip the error allocation, never change an answer. (A rejected string's
// number is not an answer: no caller reads it.)
func FuzzPortNumber(f *testing.F) {
	for _, s := range []string{
		"", "0", "22", "3306", "65535", "65536", "+80", "-1", "+", "-", "--1", "+-1",
		"08080", "1_000", "0x50", " 80", "80 ", "8o", "٣", "99999999999999999999",
		"-9223372036854775808", "9223372036854775808", "20000000000000000000A",
	} {
		f.Add(s)
	}
	port := NewInferencer().Def(TypePortNumber)
	f.Fuzz(func(t *testing.T, v string) {
		want, err := strconv.Atoi(v)
		if got, ok := Atoi(v); ok != (err == nil) || ok && got != want {
			t.Fatalf("Atoi(%q) = %d, %v; strconv.Atoi = %d, %v", v, got, ok, want, err)
		}
		if got, want := port.Match(v), err == nil && want > 0 && want <= 65535; got != want {
			t.Fatalf("PortNumber.Match(%q) = %v, strconv.Atoi form %v", v, got, want)
		}
	})
}
