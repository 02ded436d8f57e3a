// Cross-component misconfiguration detection on a LAMP stack — the
// paper's future-work extension: "the configuration of other components
// can be seen as one kind of environment factors."
//
// Because attributes are namespaced per application and rule templates are
// type-driven, the unchanged rule engine learns correlations that span
// Apache, MySQL, and PHP: the web tier's database socket must equal the
// database's actual socket, and the PHP session store must belong to the
// Apache service account.
//
//	go run ./examples/lamp-stack
package main

import (
	"fmt"
	"log"
	"strings"

	encore "repro"
	"repro/internal/corpus"
)

func main() {
	training, err := corpus.LAMPTraining(60, 31)
	if err != nil {
		log.Fatal(err)
	}
	fw := encore.New()
	knowledge, err := fw.Learn(training)
	if err != nil {
		log.Fatal(err)
	}

	cross := 0
	for _, r := range knowledge.Rules {
		if app(r.AttrA) != app(r.AttrB) {
			cross++
			if cross <= 6 {
				fmt.Printf("cross-component rule: %s\n", r)
			}
		}
	}
	fmt.Printf("%d rules total, %d spanning components\n\n", len(knowledge.Rules), cross)

	// Compile once; both targets are checked against the same plan.
	plan := fw.CompilePlan(knowledge)

	// Failure 1: PHP points at a stale MySQL socket (the database moved).
	victims, err := corpus.LAMPTraining(1, 77)
	if err != nil {
		log.Fatal(err)
	}
	brokenSocket := corpus.BreakLAMPSocket(victims[0])
	report, err := plan.Check(brokenSocket)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("target %s:\n", brokenSocket.ID)
	printTop(report, 4)

	// Failure 2: the session store was chowned away from Apache.
	brokenSession := corpus.BreakLAMPSessionOwner(victims[0])
	report, err = plan.Check(brokenSession)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntarget %s:\n", brokenSession.ID)
	printTop(report, 4)
}

func app(attr string) string {
	if i := strings.Index(attr, ":"); i >= 0 {
		return attr[:i]
	}
	return ""
}

func printTop(report *encore.Report, n int) {
	for _, w := range report.Warnings {
		if w.Rank > n {
			break
		}
		fmt.Printf("%3d. [%-16s] %s\n", w.Rank, w.Kind, w.Message)
	}
}
