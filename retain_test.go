package encore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/detect"
)

// TestPlanReportRetainsNoScratch is the aliasing guard for the pooled
// parse scratch under Plan.Check: a report must hold nothing that a later
// check reuses. The probe image's Apache config has a spliced quoted
// argument (built in the scratch's splice buffer) and nested sections with
// arguments (section paths from the scratch's table); its report is
// rendered, then 200 other images with spliced arguments and sections of
// their own run through the same plan — once on one goroutine, then,
// after the plan is swapped for its decoded twin, from 4 goroutines at
// once — and the report must render to the same bytes.
func TestPlanReportRetainsNoScratch(t *testing.T) {
	fw := New()
	training, err := corpus.Training("apache", 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	k, err := fw.Learn(training)
	if err != nil {
		t.Fatal(err)
	}
	plan := fw.CompilePlan(k)

	// The other images are built before the probe is checked, so no
	// garbage collection empties the scratch pool in between and the
	// checks that follow reuse the probe's scratch.
	others, err := corpus.Training("apache", 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range others {
		for j := range img.ConfigFiles {
			if cf := &img.ConfigFiles[j]; cf.App == "apache" {
				cf.Content += fmt.Sprintf("<VirtualHost *:%d>\n<Directory \"/srv/other %d\">\n"+
					"Header set X-Other \"o %d\"p\n</Directory>\n</VirtualHost>\nTimeout \"z %d\"w\n", 9000+i, i, i, i)
				break
			}
		}
	}
	probe := training[0].Clone()
	probe.ID = "retain-probe"
	for i := range probe.ConfigFiles {
		if cf := &probe.ConfigFiles[i]; cf.App == "apache" {
			cf.Content += "<VirtualHost *:8443>\n<Directory \"/srv/probe dir\">\n" +
				"Header set X-Probe \"a b\"c\n</Directory>\n</VirtualHost>\nTimeout \"a b\"c\n"
			break
		}
	}
	rep, err := plan.Check(probe)
	if err != nil {
		t.Fatal(err)
	}
	render := func(r *detect.Report) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := r.AppendJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := render(rep)
	for _, s := range []string{`"value":"a bc"`, "|Directory:/srv/probe dir/Header"} {
		if !bytes.Contains(want, []byte(s)) {
			t.Fatalf("probe report does not mention %q, so it guards nothing:\n%s", s, want)
		}
	}

	for _, img := range others {
		if _, err := plan.Check(img); err != nil {
			t.Fatal(err)
		}
	}
	if got := render(rep); !bytes.Equal(got, want) {
		t.Fatalf("report changed after sequential checks\nbefore: %s\nafter:  %s", want, got)
	}

	swapped, err := fw.LoadPlan(fw.MarshalPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(others); i += 4 {
				if _, err := swapped.Check(others[i]); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := render(rep); !bytes.Equal(got, want) {
		t.Fatalf("report changed after concurrent checks\nbefore: %s\nafter:  %s", want, got)
	}
}
