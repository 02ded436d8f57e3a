package rules

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/conftypes"
	"repro/internal/dataset"
	"repro/internal/templates"
)

// The value-only templates' validators as first written, each reading
// both first values with its own parser on every call. They are the
// oracles for the templates' interpretation-built Validate and for the
// engine's counts from meaning columns.

func boolImpliesOracle(a, b []string, _ *templates.Ctx) (bool, bool) {
	if len(a) == 0 || len(b) == 0 {
		return false, false
	}
	ba, oka := lexiconOracle(a[0])
	bb, okb := lexiconOracle(b[0])
	if !oka || !okb {
		return false, false
	}
	return !ba || bb, true
}

func numLtOracle(a, b []string, _ *templates.Ctx) (bool, bool) {
	if len(a) == 0 || len(b) == 0 {
		return false, false
	}
	fa, erra := strconv.ParseFloat(a[0], 64)
	fb, errb := strconv.ParseFloat(b[0], 64)
	if erra != nil || errb != nil {
		return false, false
	}
	return fa < fb, true
}

func sizeLtOracle(a, b []string, _ *templates.Ctx) (bool, bool) {
	if len(a) == 0 || len(b) == 0 {
		return false, false
	}
	na, oka := conftypes.ParseSize(a[0])
	nb, okb := conftypes.ParseSize(b[0])
	if !oka || !okb {
		return false, false
	}
	return na < nb, true
}

// lexiconOracle reads the boolean lexicon through strings.ToLower.
func lexiconOracle(v string) (bool, bool) {
	switch strings.ToLower(v) {
	case "on", "true", "yes", "1", "enabled":
		return true, true
	case "off", "false", "no", "0", "disabled", "none":
		return false, true
	default:
		return false, false
	}
}

// valueTemplateOracles pairs each value-only template with its oracle.
var valueTemplateOracles = []struct {
	id     string
	oracle templates.Validator
}{
	{"bool-implies", boolImpliesOracle},
	{"num-lt", numLtOracle},
	{"size-lt", sizeLtOracle},
}

// valueTemplateSeeds are the inputs where the interpretations are easiest
// to get wrong: the lexicon in mixed case and through Unicode case
// mappings, signed zeros, NaN and infinity spellings, hex floats,
// underscores, out-of-range floats, and every size unit, with and without
// B, up to int64 overflow.
func valueTemplateSeeds() []string {
	seeds := []string{
		"on", "On", "ON", "oFF", "True", "yEs", "NO", "1", "0", "Enabled", "DISABLED", "None", "maybe", "",
		"\u0130", "\u212A", "D\u0130SABLED", "d\u0130sabled", "\u212Aeep", "enabled ", " on",
		"0", "-0", "+0", "0.0", "-0.0", "+0.0", "0e0", "-0e-0",
		"NaN", "nan", "-NaN", "+nan", "Inf", "-Inf", "+inf", "infinity", "-Infinity", "INF", "infinit",
		"0x1p-2", "0X1.8P+1", "-0x1p0", "0x10", "0x", "1_0", "0x1_0p0", "1e308", "1e309", "-1e400", "4.9e-325",
		"1", "2", "10", "-3.5", " 5", "5 ",
		"512", "8K", "8k", "8KB", "8kb", "16M", "16m", "16MB", "2G", "2g", "2GB", "1T", "1t", "1TB",
		"7B", "B", "K", "-1K", " 4M ", "12X", "8388607T", "8388608T", "9223372036854775807", "9223372036854775808",
		"99999999999999999999K",
	}
	return seeds
}

// countBoth counts a candidate over ix the engine's way — from meaning
// columns for a value-only template — and by validating every
// co-occurring row with Validate.
func countBoth(ix *dataset.Index, ctxs []templates.Ctx, tpl *templates.Template, attrA, attrB string) (fromMeanings, fromValidate [2]int) {
	c := candidate{tpl: tpl, attrA: attrA, attrB: attrB}
	resolved := newMeaningTable(ix).resolve(c)
	fromMeanings[0], fromMeanings[1] = countMeanings(tpl.Interp, resolved.ma, resolved.mb)
	fromValidate[0], fromValidate[1] = sweep(ix, ctxs, c)
	return fromMeanings, fromValidate
}

// FuzzValueTemplates holds each value-only template to its oracle on a
// pair of values, both through Validate and through the engine's counts:
// a small table whose rows hold the pair in both orders, a multi-instance
// cell and a one-sided row must count the same from meaning columns as
// from Validate, and as the oracle says.
func FuzzValueTemplates(f *testing.F) {
	seeds := valueTemplateSeeds()
	for i, v := range seeds {
		f.Add(v, v)
		f.Add(v, seeds[(i+1)%len(seeds)])
		f.Add(seeds[(i*7+3)%len(seeds)], v)
	}
	tpls := make([]*templates.Template, len(valueTemplateOracles))
	for i, vt := range valueTemplateOracles {
		tpls[i] = templates.ByID(vt.id)
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		rows := [][2][]string{{{a}, {b}}, {{b}, {a}}, {{a, b}, {b, a}}, {{a}, nil}, {{b}, {b}}}
		for i, vt := range valueTemplateOracles {
			tpl := tpls[i]
			wantApp, wantValid := 0, 0
			for _, r := range rows {
				holds, app := tpl.Validate(r[0], r[1], &templates.Ctx{})
				wh, wapp := vt.oracle(r[0], r[1], &templates.Ctx{})
				if holds != wh || app != wapp {
					t.Fatalf("%s.Validate(%q, %q) = %v %v, oracle says %v %v", vt.id, r[0], r[1], holds, app, wh, wapp)
				}
				if app {
					wantApp++
					if holds {
						wantValid++
					}
				}
			}
			d := dataset.New()
			typ := tpl.TypesA[0]
			d.DeclareAttr("x", typ, false)
			d.DeclareAttr("y", typ, false)
			ctxs := make([]templates.Ctx, len(rows))
			for k, r := range rows {
				row := d.NewRow(strconv.Itoa(k))
				for _, v := range r[0] {
					d.Add(row, "x", v)
				}
				for _, v := range r[1] {
					d.Add(row, "y", v)
				}
				ctxs[k] = templates.Ctx{Row: row}
			}
			got, viaValidate := countBoth(d.Index(), ctxs, tpl, "x", "y")
			if got != viaValidate || got != [2]int{wantApp, wantValid} {
				t.Fatalf("%s on (%q, %q): meanings count %v, Validate %v, oracle %v", vt.id, a, b, got, viaValidate, [2]int{wantApp, wantValid})
			}
		}
	})
}

// TestValueOnlyCandidatesMatchOracle infers over a table whose Boolean,
// Number and Size columns draw from the fuzz seeds, with every filter
// open, so each value-only candidate becomes a rule carrying its support
// and valid counts: the indexed engine must agree with the serial oracle,
// and every count must equal the oracle validators' over the rows.
func TestValueOnlyCandidatesMatchOracle(t *testing.T) {
	seeds := valueTemplateSeeds()
	d := dataset.New()
	for _, typ := range []conftypes.Type{conftypes.TypeBoolean, conftypes.TypeNumber, conftypes.TypeSize} {
		for k := 0; k < 3; k++ {
			d.DeclareAttr(string(typ)+strconv.Itoa(k), typ, false)
		}
	}
	for r := 0; r < 150; r++ {
		row := d.NewRow(strconv.Itoa(r))
		for k, a := range d.Attributes() {
			if (r+k)%5 == 0 {
				continue // absent
			}
			d.Add(row, a.Name, seeds[(r*(k+3)+k)%len(seeds)])
		}
	}
	cfg := Config{MinConfidence: 0, MinSupportFraction: 0, UseEntropyFilter: false}
	indexed, serial := NewEngine(), NewEngine()
	indexed.Config, serial.Config = cfg, cfg
	got := indexed.Infer(d, nil)
	assertEquivalent(t, "seeded value columns", got, serial.InferSerial(d, nil), indexed.LastStats, serial.LastStats)
	oracles := map[string]templates.Validator{}
	for _, vt := range valueTemplateOracles {
		oracles[vt.id] = vt.oracle
	}
	checked := 0
	for _, r := range got {
		oracle, ok := oracles[r.Template]
		if !ok {
			continue
		}
		valid := 0
		for _, row := range d.Rows() {
			if holds, app := oracle(row.Instances(r.AttrA), row.Instances(r.AttrB), nil); app && holds {
				valid++
			}
		}
		if r.Valid != valid {
			t.Fatalf("%s: valid %d, oracle counts %d", r, r.Valid, valid)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no value-only rule was inferred")
	}
}
