// Package trace defines the job-trace data model shared by the generators,
// the scheduling simulator, and the characterization analyses, plus SWF and
// CSV serialization.
//
// Conventions: times are float64 seconds relative to the trace start;
// resource sizes are integer "cores" (CPU cores on HPC systems, GPUs on DL
// systems — the paper compares them on the same axis); every job carries a
// user ID and a final status.
package trace

import "fmt"

// Status is the final exit state of a job, following the paper's three-way
// classification (Section IV-A).
type Status int

const (
	// Passed means the job finished normally.
	Passed Status = iota
	// Failed means the job died mid-run from a technical fault
	// (SIGABRT/SIGSEGV class: bugs, bad configs) — typically early.
	Failed
	// Killed means the job was terminated by an external actor
	// (SIGTERM/SIGKILL class: user cancellation, walltime limit).
	Killed
)

// String returns the status name used in trace files and reports.
func (s Status) String() string {
	switch s {
	case Passed:
		return "Passed"
	case Failed:
		return "Failed"
	case Killed:
		return "Killed"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ParseStatus converts a status name back to a Status.
func ParseStatus(s string) (Status, error) {
	switch s {
	case "Passed":
		return Passed, nil
	case "Failed":
		return Failed, nil
	case "Killed":
		return Killed, nil
	}
	return Passed, fmt.Errorf("trace: unknown status %q", s)
}

// Statuses lists all statuses in canonical order for iteration.
var Statuses = [3]Status{Passed, Failed, Killed}

// Job is a single execution instance submitted by a user.
type Job struct {
	ID     int     // unique within the trace, dense from 0
	User   int     // user ID, dense from 0
	Submit float64 // submission time, seconds since trace start
	Wait   float64 // queue waiting time in seconds (-1 if unknown/unscheduled)
	Run    float64 // actual runtime in seconds
	// Walltime is the user-requested runtime limit in seconds; schedulers
	// plan reservations against it. Zero means "not provided" (the DL
	// traces in the paper lack walltime, which is why Table II covers
	// only Blue Waters, Mira, and Theta).
	Walltime float64
	Procs    int // requested cores (CPU cores or GPUs, per system)
	// VC is the virtual-cluster index the job is confined to (Philly-style
	// isolation). -1 means the whole machine is available.
	VC     int
	Status Status
}

// End returns submit+wait+run — the completion timestamp — when the wait is
// known; otherwise it returns submit+run as a lower bound.
func (j Job) End() float64 {
	if j.Wait >= 0 {
		return j.Submit + j.Wait + j.Run
	}
	return j.Submit + j.Run
}

// Start returns the dispatch timestamp submit+wait, or submit when the wait
// is unknown.
func (j Job) Start() float64 {
	if j.Wait >= 0 {
		return j.Submit + j.Wait
	}
	return j.Submit
}

// CoreSeconds returns Run * Procs, the resource consumption of the job.
func (j Job) CoreSeconds() float64 {
	return j.Run * float64(j.Procs)
}

// CoreHours returns the consumption in core-hours (the unit of Figure 2).
func (j Job) CoreHours() float64 {
	return j.CoreSeconds() / 3600
}

// Turnaround returns wait+run, the job's total time in the system, or just
// Run when the wait is unknown.
func (j Job) Turnaround() float64 {
	if j.Wait >= 0 {
		return j.Wait + j.Run
	}
	return j.Run
}

// Slowdown returns turnaround/run. Jobs with zero runtime return the
// turnaround against a 1-second floor to stay finite.
func (j Job) Slowdown() float64 {
	r := j.Run
	if r < 1 {
		r = 1
	}
	return j.Turnaround() / r
}

// BoundedSlowdown returns the bounded slowdown max(turnaround/max(run,tau),1)
// with interactivity threshold tau seconds (Feitelson's bsld; the paper uses
// tau = 10s). A negative (unknown) Wait counts as no wait, as in Turnaround.
func (j Job) BoundedSlowdown(tau float64) float64 {
	wait := 0.0
	if j.Wait >= 0 {
		wait = j.Wait
	}
	return Bsld(wait, j.Run, tau)
}

// BsldTau is the bounded-slowdown interactivity threshold in seconds
// (Feitelson's tau; the paper uses 10 s). The simulator, the twin and the
// checks all score bsld with it.
const BsldTau = 10.0

// Bsld is the bounded slowdown of a job that waited wait seconds and ran
// run seconds: max((wait+run)/max(run,tau),1), and 1 when max(run,tau) is
// not positive. It is the one bsld formula: the simulator's and the twin's
// per-job folds call it with float arguments, so they pay no Job record
// copy, and their sums stay bit-identical to BoundedSlowdown's.
func Bsld(wait, run, tau float64) float64 {
	r := run
	if r < tau {
		r = tau
	}
	if r <= 0 {
		return 1
	}
	s := (wait + run) / r
	if s < 1 {
		return 1
	}
	return s
}

// Validate reports the first structural problem with the job, if any.
func (j Job) Validate() error { return j.validate() }

// validate is Validate without the by-value receiver copy; Trace.Validate
// runs it over every job on each simulation start (sim.Runner revalidates
// per run), where the per-job record copy is measurable.
func (j *Job) validate() error {
	if err := j.checkFinite(); err != nil {
		return fmt.Errorf("trace: job %d: %w", j.ID, err)
	}
	switch {
	case j.Submit < 0:
		return fmt.Errorf("trace: job %d: negative submit %v", j.ID, j.Submit)
	case j.Run < 0:
		return fmt.Errorf("trace: job %d: negative runtime %v", j.ID, j.Run)
	case j.Procs <= 0:
		return fmt.Errorf("trace: job %d: non-positive procs %d", j.ID, j.Procs)
	case j.Walltime < 0:
		return fmt.Errorf("trace: job %d: negative walltime %v", j.ID, j.Walltime)
	case j.User < 0:
		return fmt.Errorf("trace: job %d: negative user %d", j.ID, j.User)
	}
	return nil
}

// checkFinite rejects NaN and ±Inf times: a NaN compares false against
// everything, so it slips past the sign checks and the submit-order check,
// and an infinite runtime never ends. The readers call it so a bad field is
// reported with its line or row number; the finite -1 "unknown wait"
// sentinel passes.
func (j *Job) checkFinite() error {
	// x-x is 0 for finite x and NaN for NaN and ±Inf. The first test keeps
	// the per-run validation path to four subtractions.
	if j.Submit-j.Submit == 0 && j.Wait-j.Wait == 0 && j.Run-j.Run == 0 && j.Walltime-j.Walltime == 0 {
		return nil
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"submit", j.Submit}, {"wait", j.Wait}, {"run", j.Run}, {"walltime", j.Walltime}} {
		if f.v-f.v != 0 {
			return fmt.Errorf("non-finite %s %v", f.name, f.v)
		}
	}
	return nil
}
