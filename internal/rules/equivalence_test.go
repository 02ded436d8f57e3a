package rules

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/conftypes"
	"repro/internal/dataset"
)

// valuePools gives each semantic type a small value vocabulary so random
// corpora exhibit real correlations, near-constant columns (entropy-filter
// food), and multi-instance cells.
var valuePools = map[conftypes.Type][]string{
	conftypes.TypeNumber:          {"1", "2", "5", "10", "100", "oops"},
	conftypes.TypePortNumber:      {"80", "443", "3306", "8080"},
	conftypes.TypeSize:            {"16M", "32M", "64M", "1G"},
	conftypes.TypeBoolean:         {"on", "off", "yes", "no", "true"},
	conftypes.TypeFilePath:        {"/var/a", "/var/b", "/var/a/sub", "/srv/data"},
	conftypes.TypePartialFilePath: {"sub", "conf.d", "logs"},
	conftypes.TypeUserName:        {"alice", "bob", "mysql"},
	conftypes.TypeGroupName:       {"alice", "www", "staff"},
	conftypes.TypeIPAddress:       {"10.0.0.1", "10.0.0.2", "192.168.1.1", "0.0.0.0"},
	conftypes.TypeFileName:        {"my.cnf", "httpd.conf"},
	conftypes.TypeString:          {"x", "y", "/var", "alpha"},
}

var poolTypes = []conftypes.Type{
	conftypes.TypeNumber, conftypes.TypePortNumber, conftypes.TypeSize,
	conftypes.TypeBoolean, conftypes.TypeFilePath, conftypes.TypePartialFilePath,
	conftypes.TypeUserName, conftypes.TypeGroupName, conftypes.TypeIPAddress,
	conftypes.TypeFileName, conftypes.TypeString,
}

// randomDataset builds a seeded corpus: random typed columns, random
// presence gaps (so the support bitsets have structure), occasional
// multi-instance cells, and a couple of near-constant columns.
func randomDataset(rng *rand.Rand) *dataset.Dataset {
	d := dataset.New()
	nAttrs := 6 + rng.Intn(9)
	types := make([]conftypes.Type, nAttrs)
	for i := 0; i < nAttrs; i++ {
		types[i] = poolTypes[rng.Intn(len(poolTypes))]
		d.DeclareAttr(fmt.Sprintf("a%02d.%s", i, types[i]), types[i], i%7 == 6)
	}
	attrs := d.Attributes()
	nRows := 5 + rng.Intn(140) // often spans >1 bitset word
	for r := 0; r < nRows; r++ {
		row := d.NewRow(fmt.Sprintf("img-%03d", r))
		for i, a := range attrs {
			if rng.Float64() > 0.75 {
				continue // absent on this system
			}
			pool := valuePools[types[i]]
			// A third of the columns are near-constant: always the first
			// pool value, which keeps their entropy at or near zero.
			pick := 0
			if i%3 != 0 {
				pick = rng.Intn(len(pool))
			}
			d.Add(row, a.Name, pool[pick])
			if rng.Float64() < 0.15 {
				d.Add(row, a.Name, pool[rng.Intn(len(pool))])
			}
		}
	}
	return d
}

// configs derives a few threshold settings from the seed so the
// equivalence holds across the whole Config surface, not just defaults.
func randomConfig(rng *rand.Rand) Config {
	cfg := DefaultConfig()
	cfg.MinSupportFraction = []float64{0.01, 0.10, 0.30}[rng.Intn(3)]
	cfg.MinConfidence = []float64{0.50, 0.90, 1.0}[rng.Intn(3)]
	cfg.UseEntropyFilter = rng.Intn(4) != 0
	return cfg
}

func assertEquivalent(t *testing.T, label string, par, ser []*Rule, parStats, serStats Stats) {
	t.Helper()
	if parStats != serStats {
		t.Fatalf("%s: stats diverge:\nindexed: %+v\noracle:  %+v", label, parStats, serStats)
	}
	if len(par) != len(ser) {
		t.Fatalf("%s: %d indexed rules vs %d oracle rules", label, len(par), len(ser))
	}
	for i := range par {
		if !reflect.DeepEqual(par[i], ser[i]) {
			t.Fatalf("%s: rule %d diverges:\nindexed: %+v\noracle:  %+v", label, i, par[i], ser[i])
		}
	}
}

// TestIndexedInferMatchesSerialOracle is the columnar-index equivalence
// property: across randomized corpora and thresholds, the indexed parallel
// Infer and the index-free serial oracle return identical rules — every
// field, including support, confidence, and entropies — and identical
// filter accounting. Tier 2 runs this under -race, which also exercises
// the streamed candidate channel and the shared index snapshot.
func TestIndexedInferMatchesSerialOracle(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := randomDataset(rng)
		cfg := randomConfig(rng)

		indexed := NewEngine()
		indexed.Config = cfg
		par := indexed.Infer(d, nil)

		oracle := NewEngine()
		oracle.Config = cfg
		ser := oracle.InferSerial(d, nil)

		assertEquivalent(t, fmt.Sprintf("seed %d", seed), par, ser, indexed.LastStats, oracle.LastStats)

		// Single-worker indexed run must agree too.
		one := NewEngine()
		one.Config = cfg
		one.Config.Workers = 1
		single := one.Infer(d, nil)
		assertEquivalent(t, fmt.Sprintf("seed %d workers=1", seed), single, ser, one.LastStats, oracle.LastStats)
	}
}

// TestIndexedInferMatchesSerialOnAssembledCorpus runs the same property on
// a real assembled corpus with system images, so the environment-consulting
// validators (owner, user-group, concat, not-access) are part of the
// equivalence, not just the value-only ones.
func TestIndexedInferMatchesSerialOnAssembledCorpus(t *testing.T) {
	d, imgs := buildTraining(t, 25)
	for _, filter := range []bool{true, false} {
		indexed := NewEngine()
		indexed.Config.UseEntropyFilter = filter
		oracle := NewEngine()
		oracle.Config.UseEntropyFilter = filter
		par := indexed.Infer(d, imgs)
		ser := oracle.InferSerial(d, imgs)
		assertEquivalent(t, fmt.Sprintf("assembled corpus (entropy=%v)", filter), par, ser, indexed.LastStats, oracle.LastStats)
	}
}

// TestInferAfterDatasetMutation guards the index-invalidation seam the
// engine depends on: learning, mutating the training table, and learning
// again must reflect the mutation (no stale bitsets or entropies).
func TestInferAfterDatasetMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := randomDataset(rng)
	e := NewEngine()
	e.Config.UseEntropyFilter = false
	e.Config.MinSupportFraction = 0.01
	_ = e.Infer(d, nil)

	// Mutate: add rows that change support and entropy for a fresh pair.
	d.DeclareAttr("fresh.num.a", conftypes.TypeNumber, false)
	d.DeclareAttr("fresh.num.b", conftypes.TypeNumber, false)
	for i := 0; i < len(d.Rows()); i++ {
		d.Add(d.Rows()[i], "fresh.num.a", fmt.Sprintf("%d", i%5+1))
		d.Add(d.Rows()[i], "fresh.num.b", "1000")
	}
	par := e.Infer(d, nil)
	oracle := NewEngine()
	oracle.Config = e.Config
	ser := oracle.InferSerial(d, nil)
	assertEquivalent(t, "post-mutation", par, ser, e.LastStats, oracle.LastStats)
	found := false
	for _, r := range par {
		if r.Template == "num-lt" && r.AttrA == "fresh.num.a" && r.AttrB == "fresh.num.b" {
			found = true
		}
	}
	if !found {
		t.Fatal("rule over post-mutation columns not learned: stale index")
	}
}
