package rules

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/assemble"
	"repro/internal/conftypes"
	"repro/internal/dataset"
	"repro/internal/sysimage"
)

// oracleInfer runs a from-scratch Infer over a rebuilt twin of d — same
// attribute declarations in the same order, same rows — with a fresh
// engine, so no incremental state, memoized contexts, or maintained index
// can leak into the reference answer.
func oracleInfer(d *dataset.Dataset, images map[string]*sysimage.Image, cfg Config) ([]*Rule, Stats) {
	twin := dataset.New()
	for _, a := range d.Attributes() {
		twin.DeclareAttr(a.Name, a.Type, a.Augmented)
	}
	twin.AddRows(d.Rows()...)
	e := NewEngine()
	e.Config = cfg
	rules := e.Infer(twin, images)
	return rules, e.LastStats
}

// detachedRandomRow mirrors randomDataset's cell distribution but builds a
// detached row for AddRows, in a scratch dataset of its own, drawing from
// the same typed value pools.
func detachedRandomRow(rng *rand.Rand, id string, attrs []dataset.Attribute) *dataset.Row {
	src := dataset.New()
	row := src.NewRow(id)
	for i, a := range attrs {
		if rng.Float64() > 0.75 {
			continue
		}
		pool := valuePools[a.Type]
		if len(pool) == 0 {
			pool = valuePools[conftypes.TypeString]
		}
		pick := 0
		if i%3 != 0 {
			pick = rng.Intn(len(pool))
		}
		src.Add(row, a.Name, pool[pick])
		if rng.Float64() < 0.15 {
			src.Add(row, a.Name, pool[rng.Intn(len(pool))])
		}
	}
	return row
}

// TestInferDeltaMatchesInfer is the incremental-inference property: across
// randomized corpora, thresholds, and add/retire/retype sequences, the
// delta-maintained rule set — and the full filter accounting in LastStats —
// is identical to a from-scratch Infer over the current rows. Tier 2 runs
// this under -race.
func TestInferDeltaMatchesInfer(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			d := randomDataset(rng)
			cfg := randomConfig(rng)

			e := NewEngine()
			e.Config = cfg
			var st InferState
			got := e.InferWithState(d, nil, &st)
			want, wantStats := oracleInfer(d, nil, cfg)
			assertEquivalent(t, fmt.Sprintf("seed %d initial", seed), got, want, e.LastStats, wantStats)

			next := len(d.Rows())
			for step := 0; step < 12; step++ {
				label := fmt.Sprintf("seed %d step %d", seed, step)
				switch rng.Intn(4) {
				case 0, 1: // add a batch of rows
					n := 1 + rng.Intn(3)
					added := make([]*dataset.Row, n)
					for i := range added {
						added[i] = detachedRandomRow(rng, fmt.Sprintf("img-add-%03d", next), d.Attributes())
						next++
					}
					d.AddRows(added...)
					got = e.InferDelta(d, nil, &st, added, nil)
				case 2: // retire a random subset
					if len(d.Rows()) < 4 {
						continue
					}
					var ids []string
					for _, row := range d.Rows() {
						if rng.Intn(5) == 0 {
							ids = append(ids, row.SystemID)
						}
					}
					retired := d.RetireRows(ids...)
					if retired == nil {
						continue
					}
					got = e.InferDelta(d, nil, &st, nil, retired)
				case 3: // retype an attribute, then a no-op delta
					attrs := d.Attributes()
					a := attrs[rng.Intn(len(attrs))]
					d.SetType(a.Name, poolTypes[rng.Intn(len(poolTypes))])
					got = e.InferDelta(d, nil, &st, nil, nil)
				}
				want, wantStats = oracleInfer(d, nil, cfg)
				assertEquivalent(t, label, got, want, e.LastStats, wantStats)
			}
		})
	}
}

// TestInferDeltaOnAssembledCorpus runs the property on a real assembled
// corpus with system images, so the environment-consulting validators
// (owner, user-group, not-access) participate in the delta adjustments —
// including the retire path, which must re-validate retired rows against
// their images to subtract their contribution.
func TestInferDeltaOnAssembledCorpus(t *testing.T) {
	d, byID := buildTraining(t, 14)
	e := NewEngine()
	var st InferState
	got := e.InferWithState(d, byID, &st)
	want, wantStats := oracleInfer(d, byID, e.Config)
	assertEquivalent(t, "initial", got, want, e.LastStats, wantStats)

	asm := assemble.New()
	dirs := []string{"/var/lib/mysql", "/data/mysql", "/srv/mysql"}
	for step := 0; step < 6; step++ {
		label := fmt.Sprintf("step %d", step)
		if step%2 == 0 {
			// Grow: assemble new images as frozen-type delta rows.
			imgs := make([]*sysimage.Image, 2)
			for i := range imgs {
				user := "mysql"
				if (step+i)%3 == 0 {
					user = "mysqld_safe"
				}
				imgs[i] = trainingImage(fmt.Sprintf("inc-%d-%d", step, i), dirs[(step+i)%len(dirs)], user)
			}
			added, err := asm.AssembleDeltaRows(d, imgs)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			d.AddRows(added...)
			for _, im := range imgs {
				byID[im.ID] = im
			}
			got = e.InferDelta(d, byID, &st, added, nil)
		} else {
			// Shrink: retire two rows, keeping their images visible to the
			// delta inference, then drop the images.
			ids := []string{d.Rows()[0].SystemID, d.Rows()[len(d.Rows())/2].SystemID}
			retired := d.RetireRows(ids...)
			got = e.InferDelta(d, byID, &st, nil, retired)
			for _, row := range retired {
				delete(byID, row.SystemID)
			}
		}
		want, wantStats = oracleInfer(d, byID, e.Config)
		assertEquivalent(t, label, got, want, e.LastStats, wantStats)
	}
}

// TestInferDeltaColdState checks the degraded path: a zero-value state (or
// one whose row accounting does not match the dataset) must make
// InferDelta evaluate everything from scratch and still agree with Infer.
func TestInferDeltaColdState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := randomDataset(rng)
	e := NewEngine()

	var cold InferState
	got := e.InferDelta(d, nil, &cold, nil, nil)
	want, wantStats := oracleInfer(d, nil, e.Config)
	assertEquivalent(t, "zero state", got, want, e.LastStats, wantStats)

	// Corrupt the row accounting: the guard must force full re-evaluation
	// rather than trusting the tallies.
	cold.total += 3
	extra := detachedRandomRow(rng, "img-extra", d.Attributes())
	d.AddRows(extra)
	got = e.InferDelta(d, nil, &cold, []*dataset.Row{extra}, nil)
	want, wantStats = oracleInfer(d, nil, e.Config)
	assertEquivalent(t, "mismatched state", got, want, e.LastStats, wantStats)
}

// TestInferWithStatePrimesCandidates sanity-checks the state capture: the
// tracked candidate count equals the engine's candidate space.
func TestInferWithStatePrimesCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomDataset(rng)
	e := NewEngine()
	var st InferState
	e.InferWithState(d, nil, &st)
	if st.Candidates() != e.CandidateCount(d) {
		t.Fatalf("state tracks %d candidates, engine enumerates %d", st.Candidates(), e.CandidateCount(d))
	}
}
