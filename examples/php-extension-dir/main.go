// The Figure 1(a) scenario: PHP's extension_dir should name a directory.
// Its value varies widely across healthy systems, so value comparison
// learns nothing — but the *environment* knows whether the path is a
// directory, and every healthy system agrees on that fact.
//
//	go run ./examples/php-extension-dir
package main

import (
	"fmt"
	"log"

	encore "repro"
	"repro/internal/corpus"
)

func main() {
	training, err := corpus.Training("php", 80, 5)
	if err != nil {
		log.Fatal(err)
	}
	fw := encore.New()
	knowledge, err := fw.Learn(training)
	if err != nil {
		log.Fatal(err)
	}
	if t, ok := knowledge.TypeOf("php:PHP/extension_dir"); ok {
		fmt.Printf("extension_dir inferred as %s (verified against each image's file system)\n", t)
	}

	// Compile once; both targets are checked against the same plan.
	plan := fw.CompilePlan(knowledge)

	// Case 2 of the real-world study: extension_dir points at a regular
	// file (a stray .so) instead of the modules directory.
	fileTarget := corpus.RealWorldCases()[1].Build()
	report, err := plan.Check(fileTarget)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntarget A: extension_dir points at a regular file\n")
	for _, w := range report.Warnings {
		fmt.Printf("%3d. [%-16s] %s\n", w.Rank, w.Kind, w.Message)
	}

	// Case 5: extension_dir points at a location that does not exist.
	missingTarget := corpus.RealWorldCases()[4].Build()
	report, err = plan.Check(missingTarget)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntarget B: extension_dir points at a missing location\n")
	for _, w := range report.Warnings {
		fmt.Printf("%3d. [%-16s] %s\n", w.Rank, w.Kind, w.Message)
	}
}
