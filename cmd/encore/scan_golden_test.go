package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/sysimage"
)

var update = flag.Bool("update", false, "rewrite the scan golden under testdata")

// scanGoldenFixture writes the corpus every scan golden run reads: a
// training directory, and a target directory holding clean and flagged
// images, one whose config file fails to parse and one file that is not
// JSON at all. It returns the two directories and an alert policy whose
// file notifier writes inside the test's temp dir.
func scanGoldenFixture(t *testing.T) (training, targets, policy string) {
	t.Helper()
	training, _ = fixture(t)
	targets = t.TempDir()
	images, err := corpus.Training("mysql", 6, 91)
	if err != nil {
		t.Fatal(err)
	}
	images[3].ConfigFiles = append(images[3].ConfigFiles, sysimage.ConfigFile{
		App: "mysql", Path: "/etc/mysql/broken.cnf", Content: "[unterminated\n",
	})
	images = append(images, corpus.RealWorldCases()[2].Build())
	if err := sysimage.SaveDir(targets, images); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(targets, "corrupt.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	policy = filepath.Join(t.TempDir(), "alerts.yaml")
	doc := fmt.Sprintf(`version: 1
queue_size: 4096
dedup_window: 1h
rate_limit: 0
min_severity: low
notifiers:
  - name: audit
    type: file
    path: %s
rules:
  - family: "*"
    notify: [audit]
`, filepath.Join(t.TempDir(), "alerts.jsonl"))
	if err := os.WriteFile(policy, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return training, targets, policy
}

// captureScan runs `encore scan` with stderr discarded and returns its
// stdout with the target directory replaced by a fixed placeholder.
// Stdout is drained while the scan runs, so output of any size fits.
func captureScan(t *testing.T, targets string, args ...string) string {
	t.Helper()
	oldOut, oldErr := os.Stdout, os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	outCh := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		outCh <- data
	}()
	os.Stdout, os.Stderr = w, devnull
	runErr := runScan(args)
	w.Close()
	os.Stdout, os.Stderr = oldOut, oldErr
	devnull.Close()
	out := <-outCh
	if runErr != nil {
		t.Fatal(runErr)
	}
	return strings.ReplaceAll(string(out), targets, "TARGETS")
}

// TestRunScanGolden pins `encore scan`'s stdout byte for byte: FAILED
// lines for a decode and a config-parse failure, flagged lines with their
// top finding, the summary, the most-flagged attributes and the alerts
// line. Every knowledge source and shard count prints the same bytes.
// Regenerate with `go test ./cmd/encore -run TestRunScanGolden -update`.
func TestRunScanGolden(t *testing.T) {
	training, targets, policy := scanGoldenFixture(t)
	tmp := t.TempDir()
	profileFile := filepath.Join(tmp, "profile.json")
	planFile := filepath.Join(tmp, "app.plan")
	captureStdout(t, func() error {
		if err := runLearn([]string{"-training", training, "-profile", profileFile}); err != nil {
			return err
		}
		return runCompile([]string{"-training", training, "-plan-out", planFile})
	})

	golden := filepath.Join("testdata", "scan.golden")
	common := []string{"-targets", targets, "-alerts", policy}
	want := captureScan(t, targets, append([]string{"-training", training}, common...)...)
	if *update {
		if err := os.WriteFile(golden, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if want != string(data) {
		t.Fatalf("default scan diverged from %s:\ngot:\n%s\nwant:\n%s", golden, want, data)
	}
	for _, mode := range [][]string{
		{"-training", training, "-shards", "1"},
		{"-training", training, "-shards", "2"},
		{"-training", training, "-shards", "5"},
		{"-plan", planFile},
		{"-profile", profileFile},
	} {
		got := captureScan(t, targets, append(mode, common...)...)
		if got != string(data) {
			t.Fatalf("scan %v diverged from %s:\ngot:\n%s\nwant:\n%s", mode, golden, got, data)
		}
	}
}

// TestRunScanFailureCap pins the bound on printed failures: a synthetic
// fleet of 1005 copies of an image whose config file fails to parse
// prints 1000 FAILED lines, one overflow line naming the other 5, and a
// summary that still counts every failure.
func TestRunScanFailureCap(t *testing.T) {
	training, _ := fixture(t)
	targets := t.TempDir()
	images, err := corpus.Training("mysql", 1, 91)
	if err != nil {
		t.Fatal(err)
	}
	images[0].ConfigFiles = append(images[0].ConfigFiles, sysimage.ConfigFile{
		App: "mysql", Path: "/etc/mysql/broken.cnf", Content: "[unterminated\n",
	})
	if err := sysimage.SaveDir(targets, images); err != nil {
		t.Fatal(err)
	}
	out := captureScan(t, targets, "-training", training, "-targets", targets, "-fleet", "1005")
	if n := strings.Count(out, " FAILED: "); n != 1000 {
		t.Fatalf("printed %d FAILED lines, want 1000", n)
	}
	if !strings.Contains(out, "... and 5 more failures (retention cap 1000)\n") {
		t.Fatalf("no overflow line for the 5 unprinted failures:\n%s", out[len(out)-400:])
	}
	if !strings.HasSuffix(out, "\nscanned 1005 images: 0 flagged, 0 warnings total, 1005 failed\n") {
		t.Fatalf("summary does not count every failure:\n%s", out[len(out)-400:])
	}
}
