package detect

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/rules"
)

func sampleReport() *Report {
	return &Report{
		SystemID: "img-1",
		Warnings: []*Warning{
			{Rank: 1, Kind: KindCorrelation, Attr: "a", Message: "rule violated", Score: 60,
				Rule: &rules.Rule{Template: "owner", AttrA: "a", AttrB: "b", Support: 3, Confidence: 1}},
			{Rank: 2, Kind: KindType, Attr: "c", Value: "/x", Message: "type violated", Score: 50},
			{Rank: 3, Kind: KindSuspicious, Attr: "d", Value: "v", Message: "unseen value", Score: 5},
		},
	}
}

func TestRenderTextFull(t *testing.T) {
	out := sampleReport().RenderText(0)
	if !strings.Contains(out, "img-1: 3 warnings") {
		t.Fatalf("header missing:\n%s", out)
	}
	for _, want := range []string{"rule violated", "type violated", "unseen value"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRenderTextTop(t *testing.T) {
	out := sampleReport().RenderText(1)
	if !strings.Contains(out, "rule violated") {
		t.Fatal("top warning missing")
	}
	if strings.Contains(out, "unseen value") {
		t.Fatal("capped warning should be hidden")
	}
	if !strings.Contains(out, "and 2 more") {
		t.Fatalf("truncation note missing:\n%s", out)
	}
}

func TestRenderJSON(t *testing.T) {
	data, err := sampleReport().RenderJSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		SystemID string `json:"systemId"`
		Warnings []struct {
			Rank  int     `json:"rank"`
			Kind  string  `json:"kind"`
			Rule  string  `json:"rule"`
			Score float64 `json:"score"`
		} `json:"warnings"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.SystemID != "img-1" || len(decoded.Warnings) != 3 {
		t.Fatalf("decoded = %+v", decoded)
	}
	if decoded.Warnings[0].Rule == "" {
		t.Fatal("correlation warning should embed its rule")
	}
	if decoded.Warnings[1].Rule != "" {
		t.Fatal("non-correlation warning should omit the rule")
	}
}

func TestAppendJSONMatchesRenderJSON(t *testing.T) {
	// The clean report follows a dirty one, so it renders through the
	// scratch the pool recycled from it.
	var got bytes.Buffer
	for _, r := range []*Report{sampleReport(), {SystemID: "clean-host"}} {
		indented, err := r.RenderJSON()
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Compact(&want, indented); err != nil {
			t.Fatal(err)
		}
		got.Reset()
		if err := r.AppendJSON(&got); err != nil {
			t.Fatal(err)
		}
		compact := bytes.TrimSuffix(got.Bytes(), []byte("\n"))
		if !bytes.Equal(compact, want.Bytes()) {
			t.Fatalf("AppendJSON diverged from RenderJSON:\n got %s\nwant %s", compact, want.Bytes())
		}
	}

	// The pooled scratch must keep encoding allocation-light: reuse the
	// same buffer across runs and pin the per-call allocation count.
	r := sampleReport()
	got.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		got.Reset()
		if err := r.AppendJSON(&got); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Errorf("AppendJSON allocated %.1f objects per call; pooled encoding should stay under 12", allocs)
	}
}

func TestCountByKind(t *testing.T) {
	counts := sampleReport().CountByKind()
	if counts[KindCorrelation] != 1 || counts[KindType] != 1 || counts[KindSuspicious] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestFilter(t *testing.T) {
	r := sampleReport()
	got := r.Filter(func(w *Warning) bool { return w.Score >= 50 })
	if len(got) != 2 || got[0].Rank != 1 || got[1].Rank != 2 {
		t.Fatalf("filter = %v", got)
	}
	if len(r.Filter(func(*Warning) bool { return false })) != 0 {
		t.Fatal("empty filter should return nothing")
	}
}
