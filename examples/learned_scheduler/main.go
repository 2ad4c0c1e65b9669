// Learned scheduler: trains a linear priority function in the simulator
// with evolution strategies — the RLScheduler/SchedGym lineage the paper's
// simulator comes from ("help design more efficient job schedulers for the
// future HPC systems"). The learned policy is compared against the
// hand-crafted baselines on a held-out workload.
//
//	go run ./examples/learned_scheduler
package main

import (
	"context"
	"fmt"
	"log"

	"crosssched/internal/core"
	"crosssched/internal/rl"
	"crosssched/internal/sim"
)

func main() {
	train, err := core.GenerateSystem("Theta", 4, 31)
	if err != nil {
		log.Fatal(err)
	}
	test, err := core.GenerateSystem("Theta", 4, 32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training on %d jobs, evaluating on %d held-out jobs\n\n",
		train.Len(), test.Len())

	policy, history, err := rl.Train(context.Background(), train, rl.TrainConfig{
		Iterations: 25, Population: 8, Seed: 1, Backfill: sim.EASY,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ES training: bsld %.2f -> %.2f over %d iterations\n",
		history[0], history[len(history)-1], len(history)-1)
	fmt.Printf("learned weights [logRT logN logWait logArea bias]: %.2f\n\n", policy.W)

	fmt.Printf("%-10s  %10s  %10s\n", "policy", "avg bsld", "avg wait")
	show := func(name string, opt sim.Options) {
		res, err := sim.Run(test, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s  %10.2f  %10.1f\n", name, res.AvgBsld, res.AvgWait)
	}
	show("FCFS", sim.Options{Policy: sim.FCFS, Backfill: sim.EASY})
	show("SJF", sim.Options{Policy: sim.SJF, Backfill: sim.EASY})
	show("SAF", sim.Options{Policy: sim.SAF, Backfill: sim.EASY})
	show("F1", sim.Options{Policy: sim.F1, Backfill: sim.EASY})
	show("learned", policy.Options(sim.EASY))
}
