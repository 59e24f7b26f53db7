// Internet flattening (§6, Table 3): measure how metAScritic's measured
// and inferred peering links shorten AS paths and reduce reliance on
// transit providers.
//
//	go run ./examples/flattening
package main

import (
	"fmt"

	"metascritic/internal/eval"
)

func main() {
	h := eval.NewHarness(eval.Options{
		Scale:  0.15,
		Seed:   11,
		Budget: 4000,
	})
	fmt.Printf("world: %d ASes; computing flattening metrics per metro...\n\n", h.W.G.N())

	rows, tbl := eval.Table3(h)
	fmt.Println(tbl.String())

	// Aggregate the headline numbers.
	var shorter, provDrop float64
	n := 0
	for _, r := range rows {
		if r.Metro == "Global" {
			continue
		}
		shorter += r.ShorterInf
		provDrop += r.ProvBGP - r.ProvInf
		n++
	}
	fmt.Printf("on average, %.1f%% of paths from affected ASes get shorter and the\n", 100*shorter/float64(n))
	fmt.Printf("provider-path fraction drops by %.1f points once inferences are added\n", 100*provDrop/float64(n))
}
