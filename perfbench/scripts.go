package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"crosssched/internal/twin"
)

// family is a kind of twin session script.
type family int

const (
	// familyDeep: create, 25 x (submit 150 jobs, 4-candidate what-if with
	// one cold fault scenario, advance deep into the schedule), delete.
	familyDeep family = iota
	// familyChurn: create, 3 x (submit 5 jobs, 3-candidate what-if,
	// advance 300 s), kept so it can be parked; plus a resume script for
	// pre-populated sessions.
	familyChurn
)

type opKind int

const (
	opCreate opKind = iota
	opSubmit
	opWhatIf
	opAdvance
	opLog
	opDelete
	numOps
)

var opNames = [numOps]string{"create", "submit", "whatif", "advance", "log", "delete"}

// mutating reports whether the op is in the create/submit/advance class
// whose latency the mutate_* metrics report.
func (k opKind) mutating() bool { return k == opCreate || k == opSubmit || k == opAdvance }

// createBody is the POST /session wire body.
type createBody struct {
	Cores      int    `json:"cores"`
	Partitions int    `json:"partitions"`
	Policy     string `json:"policy"`
	Backfill   string `json:"backfill"`
	Seed       uint64 `json:"seed"`
}

// step is one request of a session script, in wire and in-process form.
type step struct {
	op     opKind
	think  bool // an open-loop client pauses before sending it
	body   []byte
	jobs   []twin.JobSpec
	whatif twin.WhatIfRequest
	by     float64
}

// script is one class of session. Created sessions run steps (starting
// with the create); a resumed session was built from cfg + history by the
// pre-populated state directory and runs steps from there.
type script struct {
	cfg     createBody
	history []step
	steps   []step
}

// scriptSet holds a workload's session classes.
type scriptSet struct {
	created []*script
	resumed []*script // churn only: pre-populated session p has class p mod Classes
}

var (
	churnCandidates = []twin.Candidate{{Policy: "sjf"}, {Backfill: "conservative"}, {Policy: "saf", Backfill: "easy"}}
	deepCandidates  = append(append([]twin.Candidate(nil), churnCandidates...),
		twin.Candidate{Faults: "mtbf=86400,mttr=3600,frac=0.25,recovery=requeue"})
)

// makeScripts draws the workload's session classes from the seed.
func makeScripts(w workload, seed uint64) *scriptSet {
	set := &scriptSet{}
	for c := 0; c < w.Classes; c++ {
		rng := rand.New(rand.NewPCG(seed, uint64(c)+1))
		switch w.Family {
		case familyDeep:
			set.created = append(set.created, deepScript(rng, c))
		case familyChurn:
			cfg := smallConfig(c)
			sc := &script{cfg: cfg, steps: []step{createStep(cfg)}}
			var now float64
			sc.steps = append(sc.steps, smallBatches(rng, cfg, 3, &now)...)
			set.created = append(set.created, sc)
			set.resumed = append(set.resumed, resumeScript(rng, smallConfig(c+w.Classes)))
		}
	}
	return set
}

func smallConfig(c int) createBody {
	return createBody{Cores: 32 + (c%4)*32, Partitions: 1 + (c/4)%4, Policy: "fcfs", Backfill: "easy", Seed: uint64(c) + 1}
}

// smallBatches is n x (submit 5 jobs, 3-candidate what-if, advance 300 s).
func smallBatches(rng *rand.Rand, cfg createBody, n int, now *float64) []step {
	var steps []step
	for b := 0; b < n; b++ {
		steps = append(steps, submitStep(smallJobs(rng, cfg, *now), b > 0), whatIfStep(churnCandidates), advanceStep(300))
		*now += 300
	}
	return steps
}

// resumeScript builds a pre-populated session's history (one batch
// submitted and advanced) and what a resume does with it: a submit (which
// reactivates the session if it is parked), a /log read checked against
// the recovered prefix, then three what-if batches.
func resumeScript(rng *rand.Rand, cfg createBody) *script {
	sc := &script{cfg: cfg}
	var now float64
	sc.history = []step{submitStep(smallJobs(rng, cfg, now), false), advanceStep(300)}
	now += 300
	batches := smallBatches(rng, cfg, 3, &now)
	sc.steps = append(sc.steps, batches[0], step{op: opLog})
	sc.steps = append(sc.steps, batches[1:]...)
	return sc
}

func smallJobs(rng *rand.Rand, cfg createBody, now float64) []twin.JobSpec {
	jobs := make([]twin.JobSpec, 5)
	for i := range jobs {
		jobs[i] = twin.JobSpec{
			Procs:  1 + rng.IntN(minCap(cfg)),
			Run:    float64(60 + 10*rng.IntN(240)),
			User:   rng.IntN(6),
			Submit: now + float64(rng.IntN(300)),
		}
	}
	sortBySubmit(jobs)
	return jobs
}

// deepScript is 25 batches of 150 jobs on a 256-1024-core cluster of 1-4
// partitions. Each batch holds the same job sizes and a stratified draw of
// log-uniform runtimes (1 min to 4 h), shuffled, so batches differ in order,
// submit times and users but hardly in work. Each advance moves the clock
// by the batch's work at 85% utilization, so the log grows deep while the
// queue stays bounded.
func deepScript(rng *rand.Rand, c int) *script {
	cfg := createBody{Cores: 256 * (1 + c%4), Partitions: 1 + (c/2)%4, Policy: "fcfs", Backfill: "easy", Seed: uint64(c) + 1}
	sc := &script{cfg: cfg, steps: []step{createStep(cfg)}}
	sizes := []int{1, 1, 2, 4, 4, 8, 8, 16, 32, 64}
	const n = 150
	var now float64
	for b := 0; b < 25; b++ {
		jobs := make([]twin.JobSpec, n)
		strata := rng.Perm(n)
		var work float64
		for i := range jobs {
			procs := min(sizes[i%len(sizes)], minCap(cfg))
			run := math.Round(60 * math.Exp((float64(strata[i])+rng.Float64())/n*math.Log(240)))
			jobs[i] = twin.JobSpec{Procs: procs, Run: run, Walltime: math.Round(run * (1 + rng.Float64())), User: rng.IntN(32)}
			work += float64(procs) * run
		}
		adv := math.Round(work / (0.85 * float64(cfg.Cores)))
		for i := range jobs {
			jobs[i].Submit = now + math.Round(rng.Float64()*adv)
		}
		sortBySubmit(jobs)
		sc.steps = append(sc.steps, submitStep(jobs, b > 0), whatIfStep(deepCandidates), advanceStep(adv))
		now += adv
	}
	sc.steps = append(sc.steps, step{op: opDelete})
	return sc
}

func minCap(cfg createBody) int { return cfg.Cores / cfg.Partitions }

func sortBySubmit(jobs []twin.JobSpec) {
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Submit < jobs[b].Submit })
}

func createStep(cfg createBody) step { return step{op: opCreate, body: mustJSON(cfg)} }

func submitStep(jobs []twin.JobSpec, think bool) step {
	return step{op: opSubmit, think: think, jobs: jobs, body: mustJSON(struct {
		Jobs []twin.JobSpec `json:"jobs"`
	}{jobs})}
}

func whatIfStep(c []twin.Candidate) step {
	req := twin.WhatIfRequest{Candidates: c}
	return step{op: opWhatIf, whatif: req, body: mustJSON(req)}
}

func advanceStep(by float64) step {
	return step{op: opAdvance, by: by, body: mustJSON(struct {
		By float64 `json:"by"`
	}{by})}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding a request body: %v", err))
	}
	return b
}

// sessionConfig is what the create handler builds from the wire body.
func (c createBody) sessionConfig() (twin.SessionConfig, error) {
	pol, err := twin.ParsePolicy(c.Policy)
	if err != nil {
		return twin.SessionConfig{}, err
	}
	bf, err := twin.ParseBackfill(c.Backfill)
	if err != nil {
		return twin.SessionConfig{}, err
	}
	return twin.SessionConfig{Cores: c.Cores, Partitions: c.Partitions, Policy: pol, Backfill: bf, Seed: c.Seed}, nil
}
