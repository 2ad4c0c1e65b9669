// Hybrid-future stress test: the paper's motivating question — what do
// emerging DL workloads do to a traditional HPC machine's scheduling? This
// example injects an increasing share of Philly-style DL jobs into a
// Theta-like workload on the same machine and re-schedules with FCFS+EASY,
// showing how the incumbent HPC jobs' waits degrade while the small DL
// jobs backfill freely (Takeaways 1, 3, and 6 in action).
//
//	go run ./examples/hybrid_future
package main

import (
	"context"
	"fmt"
	"log"

	"crosssched/internal/experiments"
)

func main() {
	fmt.Println("sweeping DL job share on a Theta-like machine (this re-schedules")
	fmt.Println("the combined workload once per share)...")
	fmt.Println()
	pts, err := experiments.HybridSweep(context.Background(), 8, 1, []float64{0, 0.25, 0.5, 0.75, 0.9})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.RenderHybrid(pts))

	fmt.Println()
	base, worst := pts[0], pts[len(pts)-1]
	fmt.Printf("HPC p90 wait grew %.1fx (%.0fs -> %.0fs) as the DL share reached %.0f%%,\n",
		worst.HPCP90Wait/base.HPCP90Wait, base.HPCP90Wait, worst.HPCP90Wait,
		100*worst.DLShare)
	fmt.Printf("while the injected DL jobs' median wait stayed at %.0fs — small jobs\n",
		worst.DLMedianWait)
	fmt.Println("backfill around the incumbents, but their aggregate demand starves them.")
}
