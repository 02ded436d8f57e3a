// Customization: declare a new semantic type, a new augmented attribute, a
// new relation operator, and a new rule template from a customization file
// (Section 5.3 of the paper), then use them end-to-end on the Apache
// corpus.
//
//	go run ./examples/custom-template
package main

import (
	"fmt"
	"log"

	encore "repro"
	"repro/internal/corpus"
)

// customization declares an UploadDir type for web upload areas, augments
// it with its permission bits, defines a "writableBy" operator backed by
// the image's permission model, and asks the learner to try the template
// "[A:UploadDir] ~w [B:UserName]" — the upload area should be writable by
// the account the server runs as.
const customization = `
# Upload areas must be writable by the serving user.
$$TypeDeclaration
UploadDir
$$TypeInference
UploadDir (value): { matches(value, '^/.*/uploads$') }
$$TypeValidation
UploadDir (value): { isDir(value) }
$$TypeAugmentDeclaration
UploadDir.perm Permission
$$TypeAugment
UploadDir.perm (value): { perm(value) }
$$TypeOperator
writableBy: Operator '~w' (v1,v2): { writable(v1, v2) }
$$Template
[A:UploadDir] ~w [B:UserName] -- 90%
`

func main() {
	fw := encore.New()
	if err := fw.LoadCustomization(customization); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("customization loaded: %d templates active\n", len(fw.Templates()))

	training, err := corpus.Training("apache", 60, 21)
	if err != nil {
		log.Fatal(err)
	}
	knowledge, err := fw.Learn(training)
	if err != nil {
		log.Fatal(err)
	}

	// The custom type wins over the predefined FilePath for matching
	// values.
	if t, ok := knowledge.TypeOf("apache:Alias/arg2"); ok {
		fmt.Printf("Alias/arg2 (the upload area) inferred as %s\n", t)
	}
	var customRules int
	for _, r := range knowledge.Rules {
		if r.Template == "custom:~w:UploadDir:UserName" {
			customRules++
			fmt.Printf("custom rule learned: %s\n", r)
		}
	}
	fmt.Printf("%d rules total, %d from the custom template\n", len(knowledge.Rules), customRules)

	// Real-world case #7: the upload directory was chown'ed to root, so
	// visitors can no longer upload. The custom rule catches it.
	target := corpus.RealWorldCases()[6].Build()
	report, err := fw.CompilePlan(knowledge).Check(target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntarget %s (upload dir owned by root):\n", target.ID)
	for _, w := range report.Warnings {
		fmt.Printf("%3d. [%-16s] %s\n", w.Rank, w.Kind, w.Message)
	}
}
