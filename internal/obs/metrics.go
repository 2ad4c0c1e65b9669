package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"sync"
)

// Metrics are the per-run counters and timers the simulator maintains.
// They are always cheap integer increments inside the run (no locking, no
// allocation); pass a *Metrics in sim.Options.Metrics to receive a copy
// when the run finishes (including a canceled run, so partial progress is
// visible).
type Metrics struct {
	// Events counts event-loop iterations (distinct clock advances).
	Events int64 `json:"events"`
	// Arrivals and Completions count the two event classes processed.
	Arrivals    int64 `json:"arrivals"`
	Completions int64 `json:"completions"`
	// SchedulePasses counts per-partition scheduling passes.
	SchedulePasses int64 `json:"schedule_passes"`
	// ScoreSorts and ScoreCacheHits split dynamic-policy queue orderings
	// into recomputed sorts and passes served from the per-(partition,
	// time, fair-version) score cache. Both stay zero for static policies,
	// whose order is fixed at arrival.
	ScoreSorts     int64 `json:"score_sorts"`
	ScoreCacheHits int64 `json:"score_cache_hits"`
	// JobsStarted, Backfilled, and Violations mirror the result metrics.
	JobsStarted int64 `json:"jobs_started"`
	Backfilled  int64 `json:"backfilled"`
	Violations  int64 `json:"violations"`
	// Conservative-backfilling plan maintenance (zero unless the run uses
	// Conservative): ConsPasses counts planning passes, ConsKeptJobs sums
	// the reservations carried over from the previous pass by the
	// incremental plan, and ConsPlannedJobs sums the reservations planned
	// fresh. Kept/(Kept+Planned) is the replan work avoided.
	ConsPasses      int64 `json:"cons_passes,omitempty"`
	ConsKeptJobs    int64 `json:"cons_kept_jobs,omitempty"`
	ConsPlannedJobs int64 `json:"cons_planned_jobs,omitempty"`
	// Fault-injection counters (all zero when the fault layer is off):
	// capacity events applied, attempts interrupted, jobs requeued, and
	// jobs terminally failed by faults.
	CapacityFaults int64 `json:"capacity_faults,omitempty"`
	Interrupts     int64 `json:"interrupts,omitempty"`
	Requeues       int64 `json:"requeues,omitempty"`
	FaultFailed    int64 `json:"fault_failed,omitempty"`
	// Streaming-intake gauges (zero — and omitted — on materialized runs):
	// MaxWindowJobs is the peak number of jobs resident in the sliding
	// window (admitted but not yet retired), the quantity that must stay
	// O(active + lookahead) regardless of trace length; JobsRetired counts
	// rows flushed to the sink.
	MaxWindowJobs int64 `json:"max_window_jobs,omitempty"`
	JobsRetired   int64 `json:"jobs_retired,omitempty"`
	// Twin-service durability counters (zero — and omitted — outside the
	// twin service, which maintains one Metrics per manager): sessions
	// rebuilt from their write-ahead journal (at startup or on parked-
	// session reactivation), torn or corrupt journal tails truncated at
	// the first bad frame, sessions spilled to disk by LRU eviction,
	// parked sessions transparently reactivated on lookup, and sessions
	// degraded to ephemeral (journal-less) mode after a journal write
	// failure.
	TwinRecovered   int64 `json:"twin_recovered,omitempty"`
	TwinTruncations int64 `json:"twin_truncations,omitempty"`
	TwinParked      int64 `json:"twin_parked,omitempty"`
	TwinReactivated int64 `json:"twin_reactivated,omitempty"`
	TwinEphemeral   int64 `json:"twin_ephemeral,omitempty"`
	// WallSeconds is the run's wall-clock duration.
	WallSeconds float64 `json:"wall_seconds"`
	// Canceled reports whether the run was cut short by its context.
	Canceled bool `json:"canceled"`
}

// WriteJSON writes the metrics as indented JSON.
func (m *Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// The expvar registry forbids republishing a name, but a long-running
// service reruns simulations under the same logical name; publishedMetrics
// indirects the expvar.Func through a swappable pointer so Publish can be
// called once per run.
var (
	publishedMu      sync.Mutex
	publishedMetrics = map[string]*Metrics{}
)

// Publish exposes the metrics under the given expvar name (e.g. on
// /debug/vars when an HTTP server is running). Publishing the same name
// again swaps the underlying metrics instead of panicking like
// expvar.Publish would.
func Publish(name string, m *Metrics) {
	publishedMu.Lock()
	defer publishedMu.Unlock()
	if _, ok := publishedMetrics[name]; !ok {
		expvar.Publish(name, expvar.Func(func() interface{} {
			publishedMu.Lock()
			defer publishedMu.Unlock()
			return publishedMetrics[name]
		}))
	}
	publishedMetrics[name] = m
}
