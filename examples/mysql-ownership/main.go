// The Figure 1(b) scenario: MySQL's datadir must be owned by the user the
// server runs as. The value of each entry looks perfectly ordinary — only
// the *correlation* between the two entries, checked against the file
// system, reveals the error.
//
//	go run ./examples/mysql-ownership
package main

import (
	"fmt"
	"log"

	encore "repro"
	"repro/internal/corpus"
)

func main() {
	training, err := corpus.Training("mysql", 80, 11)
	if err != nil {
		log.Fatal(err)
	}
	fw := encore.New()
	knowledge, err := fw.Learn(training)
	if err != nil {
		log.Fatal(err)
	}

	// Show the learned ownership rule (the concrete instantiation of the
	// "[A:FilePath] => [B:UserName]" template).
	for _, r := range knowledge.Rules {
		if r.Template == "owner" {
			fmt.Printf("learned: %s  (support %d, confidence %.0f%%)\n", r.Spec, r.Support, r.Confidence*100)
			fmt.Printf("  %s => %s\n", r.AttrA, r.AttrB)
		}
	}

	// Build a target whose configuration is value-identical to healthy
	// systems, but whose datadir is owned by root (e.g. after a restore
	// from backup ran as root).
	target := corpus.RealWorldCases()[2].Build()
	fmt.Printf("\ntarget %s: datadir owner broken in the environment, values unchanged\n", target.ID)

	report, err := fw.CompilePlan(knowledge).Check(target)
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range report.Warnings {
		fmt.Printf("%3d. [%-16s] %s\n", w.Rank, w.Kind, w.Message)
	}
	if top := report.Top(); top != nil && top.Kind == encore.KindCorrelation {
		fmt.Println("\nthe ownership violation ranks first — invisible to value comparison alone")
	}
}
