// Hijack-impact prediction (§6, Fig. 7): compare how well three
// topologies — the public BGP view, the view plus measured links, and the
// view plus metAScritic's inferences — predict which ASes a prefix hijack
// captures.
//
//	go run ./examples/hijack
package main

import (
	"fmt"

	"metascritic/internal/eval"
)

func main() {
	h := eval.NewHarness(eval.Options{
		Scale:  0.15,
		Seed:   7,
		Budget: 4000,
	})
	fmt.Printf("world: %d ASes; running metAScritic on the six study metros...\n", h.W.G.N())

	res, tbl := eval.Fig7(h)
	fmt.Println()
	fmt.Println(tbl.String())

	gain := res.MeanInferredHi - res.MeanBGP
	fmt.Printf("inferred links improve mean hijack-prediction accuracy by %.1f%% over the public BGP view\n", 100*gain)
	fmt.Printf("(%d announcement configurations across metro pairs)\n", res.Configs)

	// The λ band: prediction accuracy barely depends on the link
	// threshold, echoing the paper's shaded region.
	var bandWidth float64
	for k := range res.AccInferredHi {
		bandWidth += res.AccInferredHi[k] - res.AccInferredLo[k]
	}
	bandWidth /= float64(len(res.AccInferredHi))
	fmt.Printf("mean λ-band width (λ ∈ [0.3, 0.9]): %.3f\n", bandWidth)
}
