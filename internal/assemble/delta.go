package assemble

import (
	"strconv"

	"repro/internal/dataset"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// AssembleDeltaRows assembles a batch of new images against an existing
// training dataset, returning detached rows (of a dataset of their own)
// ready for dataset.AddRows. Types are frozen: attributes the dataset
// already knows keep their learned type (so the delta rows are augmented
// exactly as the original training rows were), and only attributes first
// seen in this batch get entry-level inference — from the batch's samples
// alone. The rows are not attached to the dataset here; new columns
// (entries, augments, environment attributes) are declared so AddRows can
// maintain the columnar index by delta.
//
// A delta is a handful of images (AddImages batches), so it assembles
// inline: handing four images to the pool costs more in goroutine
// wake-ups than the pool saves.
func (a *Assembler) AssembleDeltaRows(d *dataset.Dataset, images []*sysimage.Image) ([]*dataset.Row, error) {
	root := a.Telemetry.StartSpan("assemble.delta",
		telemetry.A("images", strconv.Itoa(len(images))))
	defer root.End()
	attrsBefore := len(d.Attributes())
	batch := dataset.New()
	if err := a.assembleRows(d, batch, images, 1, root); err != nil {
		return nil, err
	}
	added := len(d.Attributes()) - attrsBefore
	a.Telemetry.Add(telemetry.CounterAttrsDeclared, int64(added))
	root.SetAttr("new_attributes", strconv.Itoa(added))
	return batch.Rows(), nil
}
