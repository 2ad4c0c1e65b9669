package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"crosssched/internal/sim"
	"crosssched/internal/twin"
)

// fuzzOps reads a fuzz input a byte at a time; an exhausted input reads
// as zeros.
type fuzzOps struct{ b []byte }

func (f *fuzzOps) next() int {
	if len(f.b) == 0 {
		return 0
	}
	v := int(f.b[0])
	f.b = f.b[1:]
	return v
}

// pick returns one of choices, chosen by the next byte.
func (f *fuzzOps) pick(choices ...string) string { return choices[f.next()%len(choices)] }

// num returns a JSON number: small values most of the time, plus the
// negative, zero, fractional and huge values a hostile client sends.
func (f *fuzzOps) num() string {
	return f.pick("0", "1", "2", "5", "17", "64", "300", "3600", "-1", "-3600",
		"0.5", "1e9", "-1e9", "1e300", "1e400", "9223372036854775808", `"7"`, "null")
}

// names lists a type's String values plus an empty and an unknown name.
func names[T fmt.Stringer](xs []T) []string {
	out := []string{"", "bogus"}
	for _, x := range xs {
		out = append(out, x.String())
	}
	return out
}

var (
	fuzzPolicies  = names(sim.Policies)
	fuzzBackfills = names(sim.Backfills)
	// Fault scenarios are picked from a fixed list: every MTBF entry pins
	// a small horizon, since generated outages grow with the horizon.
	fuzzFaults = []string{"", "off", "garbage", "mtbf=-1", "recovery=checkpoint",
		"down=0:10:100:1", "down=9:0:1:1", "down=0:0:1:100000",
		"kill=0:5,recovery=requeue,retry=2", "pint=0.2,recovery=requeue,retry=1",
		"mtbf=3600,mttr=600,horizon=7200,frac=0.5,recovery=checkpoint,ckpt=60"}
)

// body builds the JSON body of one twin request from the input.
func (f *fuzzOps) body(kind int) string {
	switch kind {
	case 0: // create
		return fmt.Sprintf(`{"profile":%q,"cores":%s,"partitions":%s,"policy":%q,"backfill":%q,"relax":%s,"seed":%s}`,
			f.pick("", "", "", "Theta", "Philly", "Nope"), f.num(), f.num(),
			f.pick(fuzzPolicies...), f.pick(fuzzBackfills...), f.num(), f.num())
	case 1: // submit
		jobs := make([]string, f.next()%24)
		for i := range jobs {
			jobs[i] = fmt.Sprintf(`{"procs":%s,"run":%s,"walltime":%s,"user":%s,"vc":%s,"submit":%s}`,
				f.num(), f.num(), f.num(), f.num(), f.pick("null", "0", "1", "-1", "99"), f.num())
		}
		return `{"jobs":[` + strings.Join(jobs, ",") + `]}`
	case 2: // advance
		return f.pick(`{"by":`+f.num()+`}`, `{"to":`+f.num()+`}`, `{"by":1,"to":2}`, `{}`)
	default: // what-if
		cands := make([]string, f.next()%6)
		for i := range cands {
			cands[i] = fmt.Sprintf(`{"policy":%q,"backfill":%q,"relax":%s,"faults":%q}`,
				f.pick(fuzzPolicies...), f.pick(fuzzBackfills...), f.num(), f.pick(fuzzFaults...))
		}
		return fmt.Sprintf(`{"candidates":[%s],"seed":%s}`, strings.Join(cands, ","), f.num())
	}
}

// FuzzTwinAPI sends byte-derived create, submit, advance and what-if
// bodies, well-formed or raw bytes, through the real twin handlers. No
// request may panic or answer 5xx: a hostile body is a 4xx (429
// included). No session may hold more than MaxJobs jobs, and no what-if
// may rank more than MaxCandidates candidates.
func FuzzTwinAPI(f *testing.F) {
	create := []byte{0, 0, 5, 1, 2, 3, 0, 1} // 64 cores, FCFS + EASY
	job := []byte{5, 6, 7, 1, 0, 0}          // 64 procs, run 300 s, walltime 3600 s
	// Create, submit 3 jobs, a what-if with a plain and a faulted
	// candidate, advance 300 s, a what-if with a job kill.
	f.Add(slices.Concat(create, []byte{1, 3}, job, job, job,
		[]byte{3, 2, 3, 4, 0, 0, 2, 3, 0, 10, 1}, []byte{2, 6, 0, 0}, []byte{3, 1, 0, 0, 0, 8, 1}))
	// Two 23-job batches against MaxJobs 40, then 5 candidates against
	// MaxCandidates 3: both must be refused with 429.
	batch := slices.Concat([]byte{1, 23}, bytes.Repeat(job, 23))
	f.Add(slices.Concat(create, batch, batch, []byte{3, 5}, bytes.Repeat([]byte{2, 3, 0, 0}, 5), []byte{1}))
	// A raw submit body whose job lacks the required fields.
	f.Add(slices.Concat(create, []byte{4, 1, 13}, []byte(`{"jobs":[{}]}`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxJobs, maxCands = 40, 3
		mgr := twin.NewManager(twin.Config{
			MaxSessions: 3, MaxJobs: maxJobs, MaxCandidates: maxCands, TickInterval: time.Hour,
		})
		defer mgr.Close()
		mux := http.NewServeMux()
		registerTwinAPI(mux, mgr, apiConfig{})
		serve := func(method, path, body string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("%s %s %s: status %d: %s", method, path, body, rec.Code, rec.Body)
			}
			return rec
		}
		in := &fuzzOps{b: data}
		id := "s000001"
		for op := 0; op < 16 && len(in.b) > 0; op++ {
			kind := in.next() % 5
			var body string
			if kind == 4 { // raw bytes to one of the four endpoints
				kind = in.next() % 4
				n := min(in.next(), len(in.b))
				body, in.b = string(in.b[:n]), in.b[n:]
			} else {
				body = in.body(kind)
			}
			path := "/session/" + id + []string{"", "/submit", "/advance", "/whatif"}[kind]
			if kind == 0 {
				path = "/session"
			}
			rec := serve("POST", path, body)
			switch {
			case kind == 0 && rec.Code == http.StatusCreated:
				var snap twin.Snapshot
				if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
					t.Fatalf("create reply %q: %v", rec.Body, err)
				}
				id = snap.ID
			case kind == 3 && rec.Code == http.StatusOK:
				var rep twin.Report
				if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
					t.Fatalf("what-if reply %q: %v", rec.Body, err)
				}
				if len(rep.Ranking) > maxCands {
					t.Fatalf("what-if ranked %d candidates, cap %d", len(rep.Ranking), maxCands)
				}
			}
			if rec := serve("GET", "/session/"+id, ""); rec.Code == http.StatusOK {
				var snap twin.Snapshot
				if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
					t.Fatalf("status reply %q: %v", rec.Body, err)
				}
				if snap.Jobs > maxJobs {
					t.Fatalf("session holds %d jobs, cap %d", snap.Jobs, maxJobs)
				}
			}
		}
	})
}
