package conftypes_test

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"repro/internal/assemble"
	"repro/internal/conftypes"
	"repro/internal/corpus"
	"repro/internal/sysimage"
)

// reNumberOracle is the Number fallback's pattern.
var reNumberOracle = regexp.MustCompile(`^-?[0-9]+(\.[0-9]+)?$`)

// booleanLexiconOracle is the boolean lexicon as first written: a set
// looked up after strings.ToLower.
var booleanLexiconOracle = map[string]bool{
	"on": true, "off": true, "true": true, "false": true,
	"yes": true, "no": true, "0": true, "1": true,
	"enabled": true, "disabled": true, "none": true,
}

// inferEntryOracle is InferEntry as first written: the lexicon test, every
// definition's Match and the numeric fallback run once per sample, and
// the non-empty samples are recounted per definition. The per-distinct-
// value InferEntry must decide every entry as it does.
func inferEntryOracle(inf *conftypes.Inferencer, samples []conftypes.Sample) conftypes.Type {
	if len(samples) == 0 {
		return conftypes.TypeString
	}
	allBool := true
	for _, s := range samples {
		if !booleanLexiconOracle[strings.ToLower(s.Value)] {
			allBool = false
			break
		}
	}
	if allBool {
		return conftypes.TypeBoolean
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
		if !reNumberOracle.MatchString(s.Value) {
			return conftypes.TypeString
		}
		numeric++
	}
	if numeric > 0 {
		return conftypes.TypeNumber
	}
	return conftypes.TypeString
}

// corpusSamples assembles an app's training corpus and returns every
// attribute's samples, each value paired with the image it came from.
func corpusSamples(t *testing.T, app string, n int) map[string][]conftypes.Sample {
	t.Helper()
	images, err := corpus.Training(app, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := assemble.New().AssembleTraining(images)
	if err != nil {
		t.Fatal(err)
	}
	byID := corpus.ByID(images)
	out := make(map[string][]conftypes.Sample)
	for _, a := range d.Attributes() {
		for _, row := range d.Rows() {
			for _, v := range row.Instances(a.Name) {
				out[a.Name] = append(out[a.Name], conftypes.Sample{Value: v, Image: byID[row.SystemID]})
			}
		}
	}
	return out
}

// TestInferEntryMatchesOracle holds InferEntry and InferValue to the
// per-sample oracle on every attribute's samples of the apache, mysql,
// php and sshd training corpora — the whole set, each image's own value,
// and the set with an empty value mixed in — at the default thresholds
// and at thresholds that let partial matches and failed verification
// through.
func TestInferEntryMatchesOracle(t *testing.T) {
	loose := conftypes.NewInferencer()
	loose.MatchFraction, loose.VerifyFraction = 0.3, 0
	for _, app := range []string{"apache", "mysql", "php", "sshd"} {
		samples := corpusSamples(t, app, 40)
		if len(samples) == 0 {
			t.Fatalf("%s: no attributes assembled", app)
		}
		for _, inf := range []*conftypes.Inferencer{conftypes.NewInferencer(), loose} {
			for name, ss := range samples {
				if got, want := inf.InferEntry(ss), inferEntryOracle(inf, ss); got != want {
					t.Fatalf("%s %s: InferEntry = %s, oracle says %s", app, name, got, want)
				}
				withEmpty := append(append([]conftypes.Sample(nil), ss...), conftypes.Sample{Image: ss[0].Image})
				if got, want := inf.InferEntry(withEmpty), inferEntryOracle(inf, withEmpty); got != want {
					t.Fatalf("%s %s (+empty): InferEntry = %s, oracle says %s", app, name, got, want)
				}
				for _, s := range ss {
					if got, want := inf.InferValue(s.Value, s.Image), inferEntryOracle(inf, []conftypes.Sample{s}); got != want {
						t.Fatalf("%s %s: InferValue(%q) = %s, oracle says %s", app, name, s.Value, got, want)
					}
				}
			}
		}
	}
}

// oracleImage is a small environment: a MySQL account, service and data
// directory.
func oracleImage() *sysimage.Image {
	im := sysimage.New("env")
	im.Users["mysql"] = &sysimage.User{Name: "mysql", UID: 27, GID: 27}
	im.Groups["mysql"] = &sysimage.Group{Name: "mysql", GID: 27}
	im.Services = []sysimage.Service{{Name: "mysql", Port: 3306, Protocol: "tcp"}}
	im.AddDir("/var/lib/mysql", "mysql", "mysql", 0o750)
	return im
}

// TestInferEntryMatchesOracleOnRandomSamples covers what corpora rarely
// hold: entries drawn from a few values where one value verifies on some
// of its images and not on others (so Verify must run per sample, not per
// distinct value), empty values, many distinct values, loose thresholds,
// and a custom type ahead of the predefined ones.
func TestInferEntryMatchesOracleOnRandomSamples(t *testing.T) {
	images := []*sysimage.Image{oracleImage(), sysimage.New("bare"), nil}
	pool := []string{"", "on", "OFF", "1", "0", "80", "3306", "16M", "2G", "/var/lib/mysql", "/no/such",
		"mysql", "root", "utf-8", "en", "text/html", "10.0.0.1", "a.conf", "x y", "-3.5", "0644"}
	even := &conftypes.Def{Name: "Even", Match: func(v string) bool {
		n, ok := conftypes.Atoi(v)
		return ok && n%2 == 0
	}}
	strict, loose := conftypes.NewInferencer(), conftypes.NewInferencer()
	loose.MatchFraction, loose.VerifyFraction = 0.5, 0.5
	for _, inf := range []*conftypes.Inferencer{strict, loose} {
		inf.AddCustom(even)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		vocab := make([]string, 1+rng.Intn(3))
		for i := range vocab {
			vocab[i] = pool[rng.Intn(len(pool))]
			if rng.Intn(8) == 0 {
				vocab[i] = fmt.Sprintf("v%d", rng.Intn(30))
			}
		}
		ss := make([]conftypes.Sample, 1+rng.Intn(40))
		for i := range ss {
			ss[i] = conftypes.Sample{Value: vocab[rng.Intn(len(vocab))], Image: images[rng.Intn(len(images))]}
		}
		for _, inf := range []*conftypes.Inferencer{strict, loose} {
			if got, want := inf.InferEntry(ss), inferEntryOracle(inf, ss); got != want {
				t.Fatalf("trial %d %v: InferEntry = %s, oracle says %s", trial, ss, got, want)
			}
		}
	}
}
