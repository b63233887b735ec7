// Selfdef reproduces the section 5.2 observation: when the SDF grammar
// parses SDF definitions lazily, "only 60 percent of the parse table had
// to be generated to parse the SDF definition of SDF itself." The SDF
// grammar here is the bootstrap transcription of Appendix B; the input
// is SDF.sdf — the SDF definition of SDF.
package main

import (
	"fmt"
	"log"
	"os"

	"ipg/internal/core"
	"ipg/internal/glr"
	"ipg/internal/harness"
	"ipg/internal/sdf"
)

func main() {
	dir := "testdata"
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}

	g := sdf.MustBootstrapGrammar()

	// Full table size, for the coverage percentage.
	full := core.New(g.Clone(), nil)
	full.Pregenerate()
	fullStates := full.Coverage().Complete
	fmt.Printf("full SDF parse table: %d states\n\n", fullStates)

	inputs, err := harness.LoadInputs(dir, g)
	if err != nil {
		log.Fatalf("%v (run from the repository root, or pass the testdata dir)", err)
	}
	cumulative := core.New(g, nil)
	fmt.Println("input        tokens  fresh-coverage  cumulative-coverage  accepted")
	for _, in := range inputs {
		// Fresh generator: the paper's per-input measurement.
		fresh := core.New(g.Clone(), nil)
		ok, err := glr.Recognize(fresh, in.Tokens, glr.GSS)
		if err != nil {
			log.Fatal(err)
		}
		// Cumulative generator: an editing session over many files.
		if _, err := glr.Recognize(cumulative, in.Tokens, glr.GSS); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %6d  %13.0f%%  %18.0f%%  %v\n",
			in.Name, harness.SentenceLen(in.Tokens),
			100*float64(fresh.Coverage().Complete)/float64(fullStates),
			100*float64(cumulative.Coverage().Complete)/float64(fullStates), ok)
	}

	fmt.Println("\nThe lazy generator only expands the states the input visits;")
	fmt.Println("the paper reports ~60% of the table generated for SDF.sdf itself.")
}
