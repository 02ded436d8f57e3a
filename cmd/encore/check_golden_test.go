package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunCheckGolden pins `encore check`'s stdout byte for byte over the
// fixture corpus for every knowledge source: -training as text, with
// -top 3, as JSON and with -advise; -profile as text and JSON; -plan as
// text. Regenerate with `go test ./cmd/encore -run TestRunCheckGolden
// -update`.
func TestRunCheckGolden(t *testing.T) {
	training, target := fixture(t)
	tmp := t.TempDir()
	profileFile := filepath.Join(tmp, "profile.json")
	planFile := filepath.Join(tmp, "app.plan")
	captureStdout(t, func() error {
		if err := runLearn([]string{"-training", training, "-profile", profileFile}); err != nil {
			return err
		}
		return runCompile([]string{"-training", training, "-plan-out", planFile})
	})

	var b strings.Builder
	for _, mode := range [][]string{
		{"-training", training},
		{"-training", training, "-top", "3"},
		{"-training", training, "-json"},
		{"-training", training, "-advise"},
		{"-profile", profileFile},
		{"-profile", profileFile, "-json"},
		{"-plan", planFile},
	} {
		label := strings.NewReplacer(training, "TRAINING", profileFile, "PROFILE", planFile, "PLAN").
			Replace(strings.Join(mode, " "))
		b.WriteString("== check " + label + " ==\n")
		b.WriteString(captureRun(t, runCheck, append(mode, "-target", target)...))
	}
	got := b.String()

	golden := filepath.Join("testdata", "check.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("check output diverged from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
