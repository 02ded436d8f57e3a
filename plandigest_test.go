package encore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/sysimage"
)

// learnedPlanDigests pins the SHA-256 of MarshalPlan for plans learned at
// the paper's training sizes (Table 12: apache 127, mysql 187, php 123)
// plus an sshd and a LAMP population, each right after Learn ("learn")
// and again after two AddImages batches of four ("grown"). The digests
// were recorded before training assembly moved onto the streamed row
// emitter, so any change to attribute order, types, augmentation or rows
// that reaches a plan shows up here as a byte difference.
var learnedPlanDigests = map[string]string{
	"apache/seed1/learn": "b9c1d35e986d82366181adb9456fb2a15fa75e9e04c59f5ef806cbabad417be1",
	"apache/seed1/grown": "497910325e497775801e185930b38582d0bccdb8fda3980c8f355379a9d29b94",
	"mysql/seed1/learn":  "550646216032d1a1070106425dd99108da53db2156ecdfac3fd6c5a2d94d6fca",
	"mysql/seed1/grown":  "59549c98c720baff60193c002a6d06c21b06262c99063e16154a16a0201305d2",
	"php/seed1/learn":    "e6d3ebb2dd1946c62032508559f2cfc109d88732cb276da9060b0e950d122203",
	"php/seed1/grown":    "03d07ceb20111a12a464f6eb5061df8aa996c576f9f578b771b885d45b27ba23",
	"apache/seed2/learn": "6d2616f9e0f61ed0dc2de7aa726968cabcff8c2ef66af800467abf0e3dc160b1",
	"apache/seed2/grown": "e68898a31164a4bd1fd016ed5f90c223f48339cb56239b7a4edbb15df071a7d3",
	"mysql/seed2/learn":  "fc179c25fd4252097b8d8bfffd473b29f9598d01a12f42eb65aed769b14fb12e",
	"mysql/seed2/grown":  "778558161448a66d0cd01862a1c7b3175c61c79aab62b7c0b12eca66153bde61",
	"php/seed2/learn":    "903919df747863e1517752748fa9bb2c9a216b68856b0ed51bcd42d3db351f2e",
	"php/seed2/grown":    "25ca3626c4cd1f10486f0f2211b855d410d20df2724a1a1dc815d43b933a1300",
	"sshd/seed1/learn":   "d9b4431fe3022423f27c43c3970d3770bf0628975771734b418540099324bccd",
	"sshd/seed1/grown":   "b8cfbb77dc1a8760e2ad10ccc891d6a33207a15929c0bb6e1661a976a0ed9934",
	"lamp/seed1/learn":   "061fc7e3c6570131ba53586b7cf22794c1d2b18eb825590da69c10bcdd5a1eb1",
	"lamp/seed1/grown":   "7d4fdf6e3f27057a308f93cadc83d30dda35916ea2ef8d4973a055afbd73e2dd",
}

// digestSet is one learned population of TestLearnedPlanDigests.
type digestSet struct {
	name          string
	train, deltas []*sysimage.Image
}

func digestSets(t *testing.T) []digestSet {
	t.Helper()
	var sets []digestSet
	add := func(name string, train, deltas []*sysimage.Image, err error) {
		if err != nil {
			t.Fatal(err)
		}
		for i, img := range deltas {
			img.ID = fmt.Sprintf("%s-delta-%03d", name, i)
		}
		sets = append(sets, digestSet{name: name, train: train, deltas: deltas})
	}
	for _, seed := range []int64{1, 2} {
		for _, s := range paperTrainingSizes {
			train, err := corpus.Training(s.app, s.n, seed)
			if err != nil {
				t.Fatal(err)
			}
			deltas, err := corpus.Training(s.app, 8, seed+100)
			add(fmt.Sprintf("%s/seed%d", s.app, seed), train, deltas, err)
		}
	}
	train, err := corpus.Training("sshd", 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := corpus.Training("sshd", 8, 101)
	add("sshd/seed1", train, deltas, err)
	lamp, err := corpus.LAMPTraining(30, 1)
	if err != nil {
		t.Fatal(err)
	}
	lampDeltas, err := corpus.LAMPTraining(8, 101)
	add("lamp/seed1", lamp, lampDeltas, err)
	return sets
}

// planDigest compiles and marshals the knowledge's plan and returns the
// bytes with their hex SHA-256.
func planDigest(fw *Framework, k *Knowledge) ([]byte, string) {
	return digest(fw.MarshalPlan(fw.CompilePlan(k)))
}

// profilePlanDigest is planDigest for the plan compiled from the
// knowledge's exported and re-read profile.
func profilePlanDigest(t *testing.T, fw *Framework, k *Knowledge) string {
	t.Helper()
	raw, err := k.Profile().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	p, err := LoadProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	_, sum := digest(fw.MarshalPlan(fw.CompilePlanFromProfile(p)))
	return sum
}

func digest(data []byte) ([]byte, string) {
	sum := sha256.Sum256(data)
	return data, hex.EncodeToString(sum[:])
}

// TestLearnedPlanDigests learns every digest set with the assembler and
// rule-engine pools at one worker and at the default, grows each
// knowledge with AddImages, and requires the plan bytes to match the
// recorded digests, both for the plan compiled from the knowledge and for
// the one compiled from its exported profile. It then learns each set a
// second time on the same Framework after growing the first knowledge,
// the pattern of a long-running learner, and requires the second plan to
// be byte-identical to the first.
func TestLearnedPlanDigests(t *testing.T) {
	sets := digestSets(t)
	for _, workers := range []int{1, 0} {
		for _, s := range sets {
			label := fmt.Sprintf("%s/workers=%d", s.name, workers)
			fw := New()
			fw.Assembler.Workers = workers
			fw.Engine.Config.Workers = workers
			k, err := fw.Learn(s.train)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			first, got := planDigest(fw, k)
			if want := learnedPlanDigests[s.name+"/learn"]; got != want {
				t.Errorf("%s: learned plan digest %s, want %s", label, got, want)
			}
			if got, want := profilePlanDigest(t, fw, k), learnedPlanDigests[s.name+"/learn"]; got != want {
				t.Errorf("%s: learned profile plan digest %s, want %s", label, got, want)
			}
			for i := 0; i < len(s.deltas); i += 4 {
				if err := fw.AddImages(k, s.deltas[i:i+4]...); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			if _, got := planDigest(fw, k); got != learnedPlanDigests[s.name+"/grown"] {
				t.Errorf("%s: grown plan digest %s, want %s", label, got, learnedPlanDigests[s.name+"/grown"])
			}
			if got := profilePlanDigest(t, fw, k); got != learnedPlanDigests[s.name+"/grown"] {
				t.Errorf("%s: grown profile plan digest %s, want %s", label, got, learnedPlanDigests[s.name+"/grown"])
			}
			again, err := fw.Learn(s.train)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if second, _ := planDigest(fw, again); !bytes.Equal(first, second) {
				t.Errorf("%s: relearning on the same Framework changed the plan bytes", label)
			}
		}
	}
}
