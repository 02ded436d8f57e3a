package confparse_test

import (
	"testing"

	"repro/internal/confparse"
	"repro/internal/corpus"
)

// TestScratchParseAllocs holds the parser of the scan and learn paths to
// its purpose: once warm, a reused Scratch parses every corpus file of
// every dialect without allocating.
func TestScratchParseAllocs(t *testing.T) {
	for _, app := range []string{"apache", "mysql", "php", "sshd"} {
		images, err := corpus.Training(app, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		var sc confparse.Scratch
		files := 0
		parseAll := func() {
			for _, img := range images {
				for _, cf := range img.ConfigFiles {
					if _, err := sc.Parse(cf.App, cf.Path, cf.Content); err != nil {
						t.Fatal(err)
					}
					files++
				}
				sc.Reset()
			}
		}
		parseAll()
		if files == 0 {
			t.Fatalf("%s corpus has no configuration files", app)
		}
		if allocs := testing.AllocsPerRun(20, parseAll); allocs != 0 {
			t.Errorf("%s: a warm Scratch allocated %.1f objects parsing %d images", app, allocs, len(images))
		}
	}
}
