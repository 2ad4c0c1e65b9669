// Policy comparison: sweeps every priority policy and backfilling strategy
// over a Theta-like workload (the ablation behind the simulator design
// choices), then shows the relaxation-factor sensitivity of relaxed vs
// adaptive backfilling and the effect of walltime-estimate quality on EASY
// backfilling.
//
//	go run ./examples/policy_comparison
package main

import (
	"context"
	"fmt"
	"log"

	"crosssched/internal/core"
	"crosssched/internal/experiments"
	"crosssched/internal/sim"
)

func main() {
	tr, err := core.GenerateSystem("Theta", 8, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ablations on %d Theta-like jobs\n\n", tr.Len())

	cells, err := experiments.PolicyMatrix(context.Background(), tr,
		[]sim.Policy{sim.FCFS, sim.SJF, sim.SAF, sim.WFP3, sim.F1, sim.Fair},
		[]sim.BackfillKind{sim.NoBackfill, sim.EASY, sim.Conservative})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiments.RenderPolicyMatrix("Theta", cells))

	pts, err := experiments.RelaxFactorSweep(context.Background(), tr, []float64{0.05, 0.1, 0.2, 0.4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiments.RenderSweep("Theta", pts))

	est, err := experiments.PredictionBackfill(context.Background(), tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(est.Render())
}
