// Runtime prediction with elapsed time (the paper's use case 1, Figure
// 12): trains Last2, Tobit, XGBoost, linear regression, and an MLP on a
// DL workload, then compares prediction quality with and without the
// elapsed-time feature at thresholds of 1/8, 1/4, and 1/2 of the mean
// runtime.
//
//	go run ./examples/runtime_prediction
package main

import (
	"context"
	"fmt"
	"log"

	"crosssched/internal/core"
	"crosssched/internal/experiments"
	"crosssched/internal/figures"
	"crosssched/internal/predict"
)

func main() {
	tr, err := core.GenerateSystem("Philly", 4, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predicting runtimes for %d Philly-like jobs...\n\n", tr.Len())

	res, err := core.RunRuntimePrediction(tr, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(figures.RenderFig12(res))

	fmt.Println("\nsummary (averaged across thresholds):")
	for _, mr := range res.Models {
		var bu, wu, ba, wa float64
		for _, v := range mr.Variants {
			bu += v.Baseline.UnderestimateRate
			wu += v.WithElapsed.UnderestimateRate
			ba += v.Baseline.AvgAccuracy
			wa += v.WithElapsed.AvgAccuracy
		}
		n := float64(len(mr.Variants))
		fmt.Printf("  %-8s underestimate %.1f%% -> %.1f%%   accuracy %.1f%% -> %.1f%%\n",
			mr.Model, 100*bu/n, 100*wu/n, 100*ba/n, 100*wa/n)
	}

	// Extension 1: predict the final status from elapsed time (Section
	// V-C: "if a job running longer than 10^4 minutes, then it is highly
	// likely to be killed").
	st, err := predict.RunStatus(tr, predict.StatusConfig{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(figures.RenderStatusPrediction(st))

	// Extension 2: act on it — proactively terminate jobs predicted not
	// to pass, reclaiming the wasted core hours Takeaway 7 highlights.
	fa, err := experiments.FaultAware(context.Background(), tr, nil, 300)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(fa.Render())
}
