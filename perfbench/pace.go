package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// The host's speed drifts: other machines' work shares its cores, and the
// same code has measured anywhere from 3,500 to 5,900 fleet images/s over
// a few hours on a 2-vCPU VM, with steps of a quarter between minutes.
// That is more than a change to the program moves a metric, and no run
// length averages it away. So timings are measured beside a fixed
// reference workload and reported at the reference's nominal pace: a
// measured time is divided by the slowdown of the bursts run beside it
// (the reference's measured cost over its nominal cost), a measured rate
// multiplied by it. Serve's open-loop median is the one timing that does
// not track the reference and is reported as measured (see runServe).
// The reference is written here with the standard library only, so the
// program under test can never change it. It decodes a JSON document
// shaped like a small system image and indexes its config lines — the
// kind of work the scan paths do — on every vCPU at once, in bursts
// interleaved with the measured work. Over 5 s windows of such
// interleaving, a decode-and-check loop's rate moved ±14% while its ratio
// to the reference moved ±4%.
const (
	refNominalUs = 250.0                  // µs per reference unit, machine-wide, on the quiet tuning VM
	burstLen     = 40 * time.Millisecond  // one burst of reference units
	paceEvery    = 400 * time.Millisecond // measured work between bursts
)

// refFile and refDoc are the reference document's shape.
type refFile struct {
	Path    string `json:"path"`
	Content string `json:"content"`
}

type refDoc struct {
	ID    string            `json:"id"`
	Env   map[string]string `json:"env"`
	Files []refFile         `json:"files"`
}

// refDocument builds the fixed reference document (about 16 KB).
func refDocument() []byte {
	r := rand.New(rand.NewSource(1))
	d := refDoc{ID: "reference", Env: map[string]string{}}
	for i := 0; i < 150; i++ {
		d.Env[fmt.Sprintf("k%03d", i)] = fmt.Sprintf("/opt/v%d/%d", r.Intn(1000), r.Intn(1e6))
	}
	for f := 0; f < 6; f++ {
		var sb strings.Builder
		for l := 0; l < 60; l++ {
			fmt.Fprintf(&sb, "Directive%d value_%d /path/%d\n", r.Intn(80), r.Intn(1e5), r.Intn(100))
		}
		d.Files = append(d.Files, refFile{Path: fmt.Sprintf("/etc/f%d.conf", f), Content: sb.String()})
	}
	data, err := json.Marshal(d)
	if err != nil {
		panic(err)
	}
	return data
}

// refUnit is one unit of reference work: decode the document, index its
// config lines by directive, and hash the sorted keys.
func refUnit(doc []byte) uint64 {
	var d refDoc
	if err := json.Unmarshal(doc, &d); err != nil {
		panic(err)
	}
	m := map[string]string{}
	for _, f := range d.Files {
		for _, ln := range strings.Split(f.Content, "\n") {
			if fs := strings.Fields(ln); len(fs) >= 2 {
				m[fs[0]] = strings.Join(fs[1:], " ")
			}
		}
	}
	keys := make([]string, 0, len(m)+len(d.Env))
	for k := range m {
		keys = append(keys, k)
	}
	for k := range d.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
	}
	return h.Sum64()
}

// pacer runs reference bursts between pieces of measured work and keeps
// what they cost, so the work's own allocations can be told apart.
type pacer struct {
	doc    []byte
	unitUs []float64 // per burst: machine-wide µs per reference unit
	allocs uint64    // heap allocations made by bursts
	last   time.Time
}

func newPacer() *pacer { return &pacer{doc: refDocument()} }

// burst runs reference units on every vCPU for burstLen, records the
// machine-wide cost of one unit and returns its slowdown: that cost over
// the nominal one, above 1 when the machine ran slower than the tuning VM
// at rest.
func (p *pacer) burst() float64 {
	m0 := mallocs()
	workers := runtime.GOMAXPROCS(0)
	counts := make([]int, workers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(burstLen)
	for w := range counts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				refUnit(p.doc)
				counts[w]++
			}
		}(w)
	}
	wg.Wait()
	units := 0
	for _, c := range counts {
		units += c
	}
	p.unitUs = append(p.unitUs, us(time.Since(start))/float64(units))
	p.allocs += mallocs() - m0
	p.last = time.Now()
	return p.unitUs[len(p.unitUs)-1] / refNominalUs
}

// tick runs a burst when paceEvery has passed since the last one and
// returns how long it took.
func (p *pacer) tick() time.Duration {
	if time.Since(p.last) < paceEvery {
		return 0
	}
	t := time.Now()
	p.burst()
	return time.Since(t)
}

// mark returns a point from which slowdownSince reads the machine's pace.
func (p *pacer) mark() int { return len(p.unitUs) }

// slowdownSince is the median slowdown of the bursts run since mark m;
// with no burst since m it runs one.
func (p *pacer) slowdownSince(m int) float64 {
	if len(p.unitUs) == m {
		return p.burst()
	}
	return median(p.unitUs[m:]) / refNominalUs
}
