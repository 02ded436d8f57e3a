// Quickstart: learn configuration rules from a small synthetic MySQL
// corpus, inject random errors into a held-out image, and print the ranked
// anomaly report.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	encore "repro"
	"repro/internal/corpus"
	"repro/internal/inject"
)

func main() {
	// 1. A training set: 60 clean, internally coherent MySQL images.
	training, err := corpus.Training("mysql", 60, 1)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Learn: assemble (parse + type inference + environment
	//    augmentation) and infer correlation rules from the templates.
	fw := encore.New()
	knowledge, err := fw.Learn(training)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("learned %d rules from %d images; examples:\n", len(knowledge.Rules), len(training))
	for i, r := range knowledge.Rules {
		if i == 5 {
			break
		}
		fmt.Printf("  - %s\n", r)
	}

	// 3. A victim: a held-out image with 8 injected configuration errors.
	victims, err := corpus.Training("mysql", 1, 99)
	if err != nil {
		log.Fatal(err)
	}
	victim := victims[0]
	victim.ID = "victim"
	injections, err := inject.New(7).Inject(victim, "mysql", 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninjected %d errors:\n", len(injections))
	for _, inj := range injections {
		fmt.Printf("  - %s\n", inj)
	}

	// 4. Check: compile the knowledge into a check plan, which runs the
	//    four anomaly checks and ranks the warnings.
	report, err := fw.CompilePlan(knowledge).Check(victim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d warnings (most severe first):\n", len(report.Warnings))
	for _, w := range report.Warnings {
		fmt.Printf("%3d. [%-16s] %s\n", w.Rank, w.Kind, w.Message)
	}

	// 5. Remediation advice: the violated relations say what must be
	//    restored; the training distributions say what the fleet does.
	advice := knowledge.Advise(report)
	fmt.Printf("\nremediation advice:\n%s", encore.RenderAdvice(advice))
}
