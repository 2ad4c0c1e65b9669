package synth

import (
	"fmt"
	"io"
	"math"

	"crosssched/internal/dist"
	"crosssched/internal/trace"
)

// JobStream lazily generates a profile's trace one job at a time,
// implementing trace.Stream. It is the generator behind Generate: the same
// arrival process, user population, shadow schedulers, and RNG draw
// sequence run incrementally, so the emitted jobs are bit-identical to the
// materialized trace — Generate is literally a drain of this stream.
//
// Memory stays O(shadow backlog): a generated job is buffered only until
// its shadow scheduler assigns it a start time (that is when Wait becomes
// known), then emitted in generation order, which is submit order — the
// arrival clock is monotone and submit quantization is order-preserving.
//
// The stream holds the *Profile it was created from (including the
// HourlyWeights normalization Generate applies); the profile must not be
// modified until the stream is drained.
type JobStream struct {
	p        *Profile
	rng      *dist.RNG
	users    []*user
	userZipf *dist.Zipf
	sizeCat  *dist.Categorical
	shadows  []*shadow
	vcCaps   []int
	nVC      int

	shape       float64
	gammaFactor float64
	wsum        float64
	horizon     float64

	now float64
	id  int

	onStart func(id int, st float64)

	// buf[head:] holds generated jobs whose shadow start is not yet known
	// (plus, at the front, any that just became emittable). IDs are dense,
	// so job id sits at buf[id-buf[0].ID], and starts[id-buf[0].ID] is its
	// shadow start, NaN until the shadow starts it.
	buf    []trace.Job
	starts []float64
	head   int

	done bool // generator exhausted and shadows flushed
	err  error
}

// Stream returns a JobStream over the profile for the given seed. The
// sequence of jobs (and the terminal error, if any) is exactly what
// Generate(seed) would produce.
func (p *Profile) Stream(seed uint64) (*JobStream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := dist.NewRNG(seed)
	users := p.makeUsers(rng)

	nVC := p.Sys.VirtualClusters
	if nVC < 1 {
		nVC = 1
	}
	shadows := make([]*shadow, nVC)
	vcCaps := make([]int, nVC)
	base := p.Sys.TotalCores / nVC
	rem := p.Sys.TotalCores % nVC
	for i := range shadows {
		vcCaps[i] = base
		if i < rem {
			vcCaps[i]++
		}
		shadows[i] = newShadow(vcCaps[i])
	}

	shape := 1.0
	if p.Burstiness > 0 {
		shape = 1 / p.Burstiness
	}
	wsum := 0.0
	for _, w := range p.HourlyWeights {
		wsum += w
	}
	if wsum == 0 {
		wsum = 24
		for i := range p.HourlyWeights {
			p.HourlyWeights[i] = 1
		}
	}

	s := &JobStream{
		p:           p,
		rng:         rng,
		users:       users,
		userZipf:    dist.NewZipf(len(users), p.UserZipfS),
		sizeCat:     dist.NewCategorical(p.SizeWeights),
		shadows:     shadows,
		vcCaps:      vcCaps,
		nVC:         nVC,
		shape:       shape,
		gammaFactor: math.Gamma(1 + 1/shape),
		wsum:        wsum,
		horizon:     p.Days * 86400,
	}
	s.onStart = func(id int, st float64) { s.starts[id-s.buf[0].ID] = st }
	return s, nil
}

// System returns the profile's system description.
func (s *JobStream) System() trace.System { return s.p.Sys }

// Next returns the next job in submit order, io.EOF at the end. Errors
// (including EOF) are sticky.
func (s *JobStream) Next() (trace.Job, error) {
	if s.err != nil {
		return trace.Job{}, s.err
	}
	for {
		// Emit the buffer front once its shadow start is known.
		if s.head < len(s.buf) {
			if st := s.starts[s.head]; !math.IsNaN(st) {
				j := s.buf[s.head]
				s.head++
				if s.head > 64 && s.head*2 > len(s.buf) {
					n := copy(s.buf, s.buf[s.head:])
					copy(s.starts, s.starts[s.head:])
					s.buf, s.starts = s.buf[:n], s.starts[:n]
					s.head = 0
				}
				j.Wait = st - j.Submit
				if j.Wait < 0 {
					j.Wait = 0
				}
				return j, nil
			}
		}
		if s.done {
			if s.head < len(s.buf) {
				s.err = fmt.Errorf("synth: job %d never started in shadow scheduler", s.buf[s.head].ID)
			} else {
				s.err = io.EOF
			}
			return trace.Job{}, s.err
		}
		s.step()
	}
}

// step advances the generator: it either produces one job into the buffer
// (skipping dead hours along the way) or, once the arrival clock reaches
// the horizon, flushes the shadow schedulers so every buffered job's start
// becomes known. The body mirrors the original Generate loop statement for
// statement — the RNG draw sequence is what makes the stream bit-identical.
func (s *JobStream) step() {
	p := s.p
	for s.now < s.horizon {
		hour := (int(s.now/3600) + p.Sys.StartHour) % 24
		rate := p.JobsPerDay / 86400 * (p.HourlyWeights[hour] * 24 / s.wsum)
		if rate <= 0 {
			s.now += 3600
			continue
		}
		meanGap := 1 / rate
		lambda := meanGap / s.gammaFactor
		gap := dist.Weibull{K: s.shape, Lambda: lambda}.Sample(s.rng)
		if gap > 6*3600 {
			gap = 6 * 3600 // keep the process moving through dead hours
		}
		s.now += gap
		if s.now >= s.horizon {
			break
		}

		sub := s.now
		if p.SubmitQuantum > 0 {
			sub = math.Floor(sub/p.SubmitQuantum) * p.SubmitQuantum
		}
		u := s.users[s.userZipf.SampleRank(s.rng)-1]
		sh := s.shadows[u.vc%s.nVC]
		sh.advance(sub, s.onStart)
		qFrac := float64(sh.queueLen()) / p.QueueScale
		if qFrac > 1 {
			qFrac = 1
		}

		j := p.makeJob(s.rng, u, s.sizeCat, qFrac, s.vcCaps[u.vc%s.nVC])
		j.ID = s.id
		j.Submit = sub
		if s.nVC > 1 {
			j.VC = u.vc % s.nVC
		} else {
			j.VC = -1
		}
		// DL schedulers do not drain for big jobs; only HPC/hybrid
		// capability jobs get priority-with-drain semantics.
		large := p.Sys.Kind != trace.DL &&
			sizeCategory3(p.Sys.Kind, j.Procs, p.Sys.TotalCores) == 2
		// Buffer the job first: submit may start it at once.
		s.buf = append(s.buf, j)
		s.starts = append(s.starts, math.NaN())
		sh.submit(shadowJob{id: s.id, procs: j.Procs, run: j.Run, submit: sub, large: large}, s.onStart)
		s.id++
		return
	}
	for _, sh := range s.shadows {
		sh.flush(s.onStart)
	}
	s.done = true
}
