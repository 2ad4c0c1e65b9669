package main

import "time"

// workload is one traffic mix. Every workload runs the same two stages so
// every end-to-end metric is defined on every workload; the shares and
// sizes decide which layers dominate.
//
// The trace stage writes a trace with `tracegen -stream` and replays it
// with `schedsim -stream` under FCFS + EASY: each of Traces distinct
// seed-derived traces once, then again from the first until TraceShare of
// the run has passed.
//
// The twin stage launches lumosweb (durable on a fresh copy of a
// pre-populated state directory when Durable), then drives session scripts
// of the given Family: first a closed loop with nproc connections driving
// the sessions the reference host completes in ClosedShare of the run at
// ClosedRate per second, then open-loop Poisson session arrivals at Rate
// per second for OpenShare.
type workload struct {
	Name string

	TraceShare float64
	Profile    string
	Days       float64
	Traces     int

	Family      family
	Durable     bool
	ClosedShare float64
	ClosedRate  float64 // closed-loop sessions per second on the reference host
	OpenShare   float64
	Rate        float64       // open-loop session arrivals per second
	Think       time.Duration // open-loop mean pause before each batch after the first
	Classes     int           // distinct session scripts, cycled
	Cap         int           // lumosweb -sessions (0 = server default)
	Populated   int           // sessions in the pre-populated state directory
}

// setupLaunches is how many times a run starts lumosweb to time set-up;
// setup_s is their median and the last launch serves the twin stage.
const setupLaunches = 11

// closedWindows is how many windows the closed loop is split into; calibPerGap
// calibration runs go before, between and after them.
const (
	closedWindows = 5
	calibPerGap   = 3
)

var workloads = map[string]workload{
	// The trace pipeline at scale plus deep twin sessions. The trace stage
	// streams eight ten-day Helios traces, whose long DL jobs keep nearly
	// the whole trace resident in schedsim's sliding window: parsing, the
	// window and EASY backfill dominate it. The twin stage runs in memory: long
	// submission logs, clocks advanced deep into the schedule, and a
	// four-candidate what-if per batch of which one (a fault scenario)
	// always replays cold, so baseline replays, checkpoint catch-up and
	// forks dominate.
	"helios-deep": {
		Name:       "helios-deep",
		TraceShare: 0.45, Profile: "Helios", Days: 10, Traces: 36,
		Family: familyDeep, Rate: 3, Think: 100 * time.Millisecond, ClosedShare: 0.35, ClosedRate: 11, OpenShare: 0.15, Classes: 8,
	},
	// A smaller trace stage plus durable churn: many short sessions on a
	// journaled server whose session cap is below the sessions touched, so
	// LRU parks and reactivates them; about half resume sessions recovered
	// from the pre-populated directory. Journal, park/reactivate, recovery
	// and HTTP dominate the twin stage, while its simulator sees logs of a
	// few dozen jobs.
	"helios-churn": {
		Name:       "helios-churn",
		TraceShare: 0.35, Profile: "Helios", Days: 5, Traces: 40,
		Family: familyChurn, Durable: true, Rate: 120, Think: 20 * time.Millisecond, ClosedShare: 0.45, ClosedRate: 650, OpenShare: 0.20, Classes: 64,
		Cap: 128, Populated: 3000,
	},
}
