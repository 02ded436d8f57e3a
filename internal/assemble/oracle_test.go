package assemble

import (
	"fmt"

	"repro/internal/confparse"
	"repro/internal/conftypes"
	"repro/internal/dataset"
	"repro/internal/sysimage"
)

// This file is the independent reference for training assembly: a
// single-threaded, dataset-mutating implementation with its own attribute
// naming, written the way the paper describes the data assembler. The
// production path (stream + rowSink + applyDecls) must produce deep-equal
// datasets; TestParallelEquivalence holds it to that.

// oracleAttrName builds the canonical column name for an entry argument.
// Single-value entries keep their entry name; multi-argument entries get
// /argN positions ("LoadModule/arg2").
func oracleAttrName(app string, e *confparse.Entry, argIdx, argCount int) string {
	base := app + ":" + e.Name()
	if argCount <= 1 {
		return base
	}
	return fmt.Sprintf("%s/arg%d", base, argIdx+1)
}

// nameValue is one (attribute name, value) contribution of an entry.
type nameValue struct{ Name, Value string }

// oracleEntryValues returns the (attribute name, value) pairs an entry
// contributes; bare flags get the implicit value "on".
func oracleEntryValues(app string, e *confparse.Entry) []nameValue {
	if len(e.Values) == 0 {
		return []nameValue{{oracleAttrName(app, e, 0, 1), "on"}}
	}
	out := make([]nameValue, 0, len(e.Values))
	for i, v := range e.Values {
		out = append(out, nameValue{oracleAttrName(app, e, i, len(e.Values)), v})
	}
	return out
}

// oraclePairs flattens one parsed image into its ordered (attribute,
// value) stream.
func oraclePairs(pi parsedImage) []nameValue {
	var out []nameValue
	for _, f := range pi.files {
		for _, e := range f.Entries {
			out = append(out, oracleEntryValues(f.App, e)...)
		}
	}
	return out
}

// assembleTrainingSerial is the reference AssembleTraining: parse every
// image, collect each attribute's samples for entry-level inference, then
// build the dataset row by row, declaring augmented columns and refining
// their types in place as they appear.
func assembleTrainingSerial(a *Assembler, images []*sysimage.Image) (*dataset.Dataset, error) {
	var parsed []parsedImage
	for _, img := range images {
		pi, err := parseOne(img)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, pi)
	}

	samples := make(map[string][]conftypes.Sample)
	var order []string
	for _, pi := range parsed {
		for _, nv := range oraclePairs(pi) {
			if _, seen := samples[nv.Name]; !seen {
				order = append(order, nv.Name)
			}
			samples[nv.Name] = append(samples[nv.Name], conftypes.Sample{Value: nv.Value, Image: pi.img})
		}
	}
	types := make(map[string]conftypes.Type, len(samples))
	for name, ss := range samples {
		types[name] = a.Inferencer.InferEntryNamed(name, ss)
	}

	d := dataset.New()
	for _, name := range order {
		d.DeclareAttr(name, types[name], false)
	}
	for _, pi := range parsed {
		oracleRow(a, d, d.NewRow(pi.img.ID), pi, types)
	}
	return d, nil
}

// oracleRow emits the original entries, the Table 5a augmented attributes,
// and the Table 5b environment attributes of one image straight into the
// dataset.
func oracleRow(a *Assembler, d *dataset.Dataset, row *dataset.Row, pi parsedImage, types map[string]conftypes.Type) {
	for _, f := range pi.files {
		for _, e := range f.Entries {
			for _, nv := range oracleEntryValues(f.App, e) {
				t := types[nv.Name]
				d.DeclareAttr(nv.Name, t, false)
				d.Add(row, nv.Name, nv.Value)
				if a.SkipPatternValues && conftypes.LooksLikeRegexOrGlob(nv.Value) {
					continue
				}
				for _, aug := range a.augmenters[t] {
					v, ok := aug.Compute(nv.Value, pi.img)
					if !ok {
						continue
					}
					augName := nv.Name + "." + aug.Suffix
					d.DeclareAttr(augName, aug.Type, true)
					d.Add(row, augName, v)
					d.SetType(augName, aug.Type)
				}
			}
		}
	}
	for _, env := range a.envAttrs {
		if v, ok := env.Compute(pi.img); ok {
			d.DeclareAttr(env.Name, env.Type, true)
			d.Add(row, env.Name, v)
			d.SetType(env.Name, env.Type)
		}
	}
}
