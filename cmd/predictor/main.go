// Command predictor runs the paper's first use case — job runtime
// prediction with and without the elapsed-time feature — and prints the
// Figure 12 comparison (underestimate rate and average accuracy for Last2,
// Tobit, XGBoost, LR, and MLP at elapsed thresholds of 1/8, 1/4, and 1/2
// of the mean runtime).
//
// Usage:
//
//	predictor -system Philly -days 10
//	predictor -input mytrace.swf -models LR,XGBoost
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"crosssched/internal/experiments"
	"crosssched/internal/figures"
	"crosssched/internal/predict"
	"crosssched/internal/synth"
	"crosssched/internal/trace"
)

func main() {
	var (
		system     = flag.String("system", "Philly", "built-in system profile")
		input      = flag.String("input", "", "SWF trace instead of a built-in")
		days       = flag.Float64("days", 10, "synthetic trace duration in days")
		seed       = flag.Uint64("seed", 1, "generator and model seed")
		models     = flag.String("models", "", "comma-separated models (default all: "+strings.Join(predict.ModelNames, ",")+")")
		status     = flag.Bool("status", false, "run the final-status prediction extension instead")
		faultaware = flag.Bool("faultaware", false, "run the fault-aware proactive-termination sweep instead")
	)
	flag.Parse()
	if err := run(*system, *input, *days, *seed, *models, *status, *faultaware); err != nil {
		fmt.Fprintln(os.Stderr, "predictor:", err)
		os.Exit(1)
	}
}

func run(system, input string, days float64, seed uint64, models string, status, faultaware bool) error {
	var tr *trace.Trace
	var err error
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err = trace.ReadSWF(f)
		if err != nil {
			return err
		}
	} else {
		p, err := synth.ByName(system, days)
		if err != nil {
			return err
		}
		tr, err = p.Generate(seed)
		if err != nil {
			return err
		}
	}
	if faultaware {
		res, err := experiments.FaultAware(context.Background(), tr, nil, 300)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	}
	if status {
		res, err := predict.RunStatus(tr, predict.StatusConfig{Seed: seed})
		if err != nil {
			return err
		}
		fmt.Print(figures.RenderStatusPrediction(res))
		return nil
	}
	cfg := predict.Config{Seed: seed}
	if models != "" {
		cfg.Models = strings.Split(models, ",")
	}
	res, err := predict.Run(tr, cfg)
	if err != nil {
		return err
	}
	fmt.Print(figures.RenderFig12(res))
	return nil
}
