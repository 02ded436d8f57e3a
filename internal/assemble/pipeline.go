package assemble

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/confparse"
	"repro/internal/conftypes"
	"repro/internal/dataset"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// parsedFile is one parsed configuration file of an image.
type parsedFile struct {
	app     string
	entries []confparse.Entry
}

// parsedImage pairs an image with its parsed configuration files.
type parsedImage struct {
	img   *sysimage.Image
	files []parsedFile
}

// walkScratch is the state one assembly worker reuses image after image:
// the config parser's scratch, the image's file list and the name buffer
// of the walk. StreamTarget takes one from walkPool per call; training and
// delta assembly hold one per pool worker while they parse.
type walkScratch struct {
	sc    confparse.Scratch
	files []parsedFile
	buf   []byte
}

var walkPool = sync.Pool{New: func() any { return &walkScratch{buf: make([]byte, 0, 96)} }}

// Bounds on what a pooled walkScratch keeps, as for confparse.Scratch.
const (
	maxKeptFiles   = 64
	maxKeptNameBuf = 1 << 12
)

// parse parses every configuration file of img into the scratch. The
// files and their entries are valid until reset. Errors carry the image
// ID (confparse adds the app and file path).
func (ws *walkScratch) parse(img *sysimage.Image) ([]parsedFile, error) {
	for _, cf := range img.ConfigFiles {
		es, err := ws.sc.Parse(cf.App, cf.Path, cf.Content)
		if err != nil {
			return nil, fmt.Errorf("assemble: image %s: %w", img.ID, err)
		}
		ws.files = append(ws.files, parsedFile{app: cf.App, entries: es})
	}
	return ws.files, nil
}

// reset drops every reference ws holds to the image it last parsed.
func (ws *walkScratch) reset() {
	ws.sc.Reset()
	clear(ws.files)
	ws.files = ws.files[:0]
	if cap(ws.files) > maxKeptFiles {
		ws.files = nil
	}
	if cap(ws.buf) > maxKeptNameBuf {
		ws.buf = make([]byte, 0, 96)
	}
}

// release resets ws and returns it to walkPool.
func (ws *walkScratch) release() {
	ws.reset()
	walkPool.Put(ws)
}

// imageStore is one pool worker's parse state in training and delta
// assembly. Every image it parses is copied out of the scratch into
// storage carved from its arenas, so the parsed images stay valid through
// both passes of the assembly call.
type imageStore struct {
	ws      *walkScratch
	files   []parsedFile
	entries []confparse.Entry
	values  []string
}

// parse parses img into the worker's scratch and returns it with its
// entries copied into the store.
func (st *imageStore) parse(img *sysimage.Image) (parsedImage, error) {
	files, err := st.ws.parse(img)
	var pi parsedImage
	if err == nil {
		pi = parsedImage{img: img, files: st.keep(files)}
	}
	st.ws.reset()
	return pi, err
}

// keep copies parsed files out of the scratch into storage carved from
// the store's arenas.
func (st *imageStore) keep(files []parsedFile) []parsedFile {
	nEntries, nValues := 0, 0
	for _, f := range files {
		nEntries += len(f.entries)
		for i := range f.entries {
			nValues += len(f.entries[i].Values)
		}
	}
	out := carve(&st.files, len(files))
	entries := carve(&st.entries, nEntries)
	values := carve(&st.values, nValues)
	for i, f := range files {
		es := entries[:len(f.entries):len(f.entries)]
		entries = entries[len(f.entries):]
		for j, e := range f.entries {
			n := len(e.Values)
			es[j] = e
			es[j].Values = values[:n:n]
			copy(es[j].Values, e.Values)
			values = values[n:]
		}
		out[i] = parsedFile{app: f.app, entries: es}
	}
	return out
}

// workerCount resolves the assembler's pool size for n independent work
// items, mirroring internal/rules: 0 means NumCPU, and the pool never
// exceeds the number of items.
func (a *Assembler) workerCount(n int) int {
	w := a.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n && n > 0 {
		w = n
	}
	return w
}

// forEachIndexed runs fn(i, worker) for i in [0, n) on a bounded worker
// pool, inline when workers <= 1; worker identifies the executing pool
// slot so instrumentation can attribute work to timelines and callers can
// keep per-worker state. fn must write only to its own index of any
// shared slice.
func forEachIndexed(n, workers int, fn func(i, worker int)) {
	if n == 0 {
		return
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i, 0)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				fn(i, w)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// parseImages parses every image on the worker pool. Results stay in
// image order, and the error returned is the first in image order. Each
// image's parse is a child span of parent attributed to its pool worker,
// and its latency feeds the per-image parse histogram.
func (a *Assembler) parseImages(images []*sysimage.Image, workers int, parent *telemetry.Span) ([]parsedImage, error) {
	parsed := make([]parsedImage, len(images))
	errs := make([]error, len(images))
	stores := make([]*imageStore, workers)
	forEachIndexed(len(images), workers, func(i, w int) {
		st := stores[w]
		if st == nil {
			st = &imageStore{ws: walkPool.Get().(*walkScratch)}
			stores[w] = st
		}
		sp := parent.StartChild("assemble.image",
			telemetry.A("image", images[i].ID), telemetry.A("worker", strconv.Itoa(w)))
		start := time.Now()
		parsed[i], errs[i] = st.parse(images[i])
		a.Telemetry.ObserveDur(telemetry.HistImageParse, time.Since(start))
		sp.End()
		if errs[i] != nil {
			sp.Logger(a.Log).Warn("image parse failed", "image", images[i].ID, "err", errs[i])
		}
	})
	for _, st := range stores {
		if st != nil {
			st.ws.release()
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return parsed, nil
}

// countFiles tallies the configuration files across images for telemetry.
func countFiles(images []*sysimage.Image) int64 {
	var n int64
	for _, img := range images {
		n += int64(len(img.ConfigFiles))
	}
	return n
}

// AssembleTraining builds the training dataset from a set of configured
// images: it parses every configuration file, infers one semantic type per
// attribute from all samples across the training set, and augments each row
// with environment attributes.
//
// Parsing, type inference and row building run on a bounded worker pool
// (Workers; 0 = NumCPU, 1 = inline), and the merge is in image order, so
// the dataset — attribute order, inferred types, augmented columns, row
// contents — does not depend on the pool size.
func (a *Assembler) AssembleTraining(images []*sysimage.Image) (*dataset.Dataset, error) {
	workers := a.workerCount(len(images))
	root := a.Telemetry.StartSpan("assemble.training",
		telemetry.A("images", strconv.Itoa(len(images))),
		telemetry.A("workers", strconv.Itoa(workers)))
	defer root.End()
	d := dataset.New()
	if err := a.assembleRows(d, d, images, workers, root); err != nil {
		return nil, err
	}
	a.Telemetry.Add(telemetry.CounterAttrsDeclared, int64(len(d.Attributes())))
	return d, nil
}

// entryTable lists every entry attribute the images of one assembly call
// mention, in first-seen order, with its type.
type entryTable struct {
	slot  map[string]int32
	names []string
	types []conftypes.Type
	// known marks attributes the dataset already declares, which keep
	// their type; samples holds the instances of every other attribute,
	// and fresh lists those attributes in first-seen order.
	known   []bool
	samples [][]conftypes.Sample
	fresh   []int32
}

// typeOf returns the resolved type of an entry attribute of the table.
func (t *entryTable) typeOf(name, _ string) conftypes.Type {
	return t.types[t.slot[name]]
}

// entryTypes is the first pass of assembly: it collects every entry
// attribute's samples in image order, runs entry-level inference per
// attribute on the pool, and declares the attributes d lacks on d in
// first-seen order.
func (a *Assembler) entryTypes(d *dataset.Dataset, parsed []parsedImage, workers int) *entryTable {
	t := &entryTable{slot: make(map[string]int32)}
	buf := make([]byte, 0, 96)
	for _, pi := range parsed {
		buf = forEachEntry(buf, pi, func(name []byte, value string) []byte {
			i, ok := t.slot[string(name)]
			if !ok {
				n := string(name)
				i = int32(len(t.names))
				t.slot[n] = i
				t.names = append(t.names, n)
				attr, known := d.Attr(n)
				t.types = append(t.types, attr.Type)
				t.known = append(t.known, known)
				t.samples = append(t.samples, nil)
				if !known {
					t.fresh = append(t.fresh, i)
				}
			}
			if !t.known[i] {
				t.samples[i] = append(t.samples[i], conftypes.Sample{Value: value, Image: pi.img})
			}
			return name
		})
	}
	forEachIndexed(len(t.fresh), workers, func(j, _ int) {
		i := t.fresh[j]
		t.types[i] = a.Inferencer.InferEntryNamed(t.names[i], t.samples[i])
	})
	for _, i := range t.fresh {
		d.DeclareAttr(t.names[i], t.types[i], false)
	}
	return t
}

// assembleRows assembles images into rows of dst against d, the shared
// core of AssembleTraining (dst is d) and AssembleDeltaRows (dst holds
// detached rows). Entry attributes d already declares keep their type;
// every other entry attribute gets entry-level inference from this
// batch's samples and is declared on d in first-seen order. Rows are then
// built concurrently, one row sink per worker, and merged into dst's
// columns in image order, with their augmented declarations applied to d.
func (a *Assembler) assembleRows(d, dst *dataset.Dataset, images []*sysimage.Image, workers int, root *telemetry.Span) error {
	parseSpan := root.StartChild("assemble.parse")
	stopParse := a.Telemetry.StartStage(telemetry.StageAssembleParse)
	parsed, err := a.parseImages(images, workers, parseSpan)
	stopParse()
	parseSpan.End()
	if err != nil {
		return err
	}
	a.Telemetry.Add(telemetry.CounterImagesParsed, int64(len(images)))
	a.Telemetry.Add(telemetry.CounterFilesParsed, countFiles(images))

	inferSpan := root.StartChild("assemble.infer")
	stopInfer := a.Telemetry.StartStage(telemetry.StageAssembleInfer)
	t := a.entryTypes(d, parsed, workers)
	stopInfer()
	inferSpan.SetAttr("attributes", strconv.Itoa(len(t.fresh)))
	inferSpan.End()

	// Pass 2: stream every image into its worker's row sink, then merge
	// the finished rows in image order.
	rowsSpan := root.StartChild("assemble.rows")
	stopRows := a.Telemetry.StartStage(telemetry.StageAssembleRows)
	runs := make([]rowRun, len(parsed))
	sinks := make([]*rowSink, workers)
	forEachIndexed(len(parsed), workers, func(i, w int) {
		sp := rowsSpan.StartChild("assemble.row",
			telemetry.A("image", parsed[i].img.ID), telemetry.A("worker", strconv.Itoa(w)))
		s := sinks[w]
		if s == nil {
			s = newRowSink(t.typeOf)
			sinks[w] = s
		}
		s.buf = a.stream(s.buf, parsed[i], s)
		runs[i] = s.flush(parsed[i].img.ID)
		sp.End()
	})
	merge(d, dst, runs)
	stopRows()
	rowsSpan.End()
	return nil
}

// AssembleTarget assembles a single target image using the attribute types
// learned during training. Attributes unseen in training are inferred from
// the target's own context.
func (a *Assembler) AssembleTarget(img *sysimage.Image, training *dataset.Dataset) (*dataset.Dataset, error) {
	s := newRowSink(func(name, value string) conftypes.Type {
		if attr, ok := training.Attr(name); ok {
			return attr.Type
		}
		return a.Inferencer.InferValue(value, img)
	})
	if err := a.StreamTarget(img, s); err != nil {
		return nil, err
	}
	d := dataset.New()
	// Copy training column declarations so checks can reference them even
	// when absent on the target, then the target's own entry attributes.
	for _, attr := range training.Attributes() {
		d.DeclareAttr(attr.Name, attr.Type, attr.Augmented)
	}
	for _, n := range s.names {
		if n.typed {
			d.DeclareAttr(n.name, n.typ, false)
		}
	}
	merge(d, d, []rowRun{s.flush(img.ID)})
	return d, nil
}
