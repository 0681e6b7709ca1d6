package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"candle/internal/candle"
	"candle/internal/checkpoint"
	"candle/internal/data"
	"candle/internal/nn"
	"candle/internal/power"
	"candle/internal/serve"
	"candle/internal/tensor"
	"candle/internal/trace"
)

// The serve-openloop workload: an in-process serve.Server at the
// candle-serve defaults, driven by seeded Poisson arrivals through
// Submit — an open loop, so the queue can grow — first at a committed
// rate, then up a fixed ladder of rates to find the highest one that
// meets the p99 limit.

var serveOpenLoop = workload{
	name:     "serve-openloop",
	why:      "in-process serve.Server, seeded Poisson arrivals via Submit at 4k req/s, then a ladder of 8k-36k req/s (step 4k) vs a 25 ms p99 limit: batcher and admission control work",
	dominant: "serve",
	run:      runOpenLoop,
}

const (
	committedRate = 4000.0 // req/s the latency and goodput metrics are measured at
	p99Limit      = 25 * time.Millisecond
	// maxLag bounds how late the generator may submit (p99): a run
	// whose generator fell further behind measured the generator, not
	// the server, and is not reported.
	maxLag = 10 * time.Millisecond
	// lagAttempts is how many committed-rate measurements a run may take
	// before a lagging generator makes it invalid.
	lagAttempts = 3
	// maxMiss is the share of requests a rate may have over the limit:
	// its p99 meets the limit exactly when at most 1% miss it.
	maxMiss = 0.01
)

// ladder is the fixed rate ladder max_rate_rps is searched on (req/s).
var ladder = []float64{8000, 12000, 16000, 20000, 24000, 28000, 32000, 36000}

const (
	rungFor = 1500 * time.Millisecond // each ladder rate's duration
)

// windowFor is the p99 window at a rate: long enough to expect 1250
// requests, so nearly every window holds the 1000 a p99 with ten
// samples beyond it needs.
func windowFor(rate float64) time.Duration {
	return time.Duration(1250 / rate * float64(time.Second))
}

// Serving model: NT3 at the candle-serve/candle-fleet default scale
// (50 features).
const serveSampleDiv, serveFeatureDiv = 20, 1200

func servingBench() (*candle.Benchmark, error) {
	return candle.Scaled("NT3", serveSampleDiv, serveFeatureDiv)
}

func serveConfig(b *candle.Benchmark, dir string, replicas int) serve.Config {
	return serve.Config{
		Benchmark:  b.Spec.Name,
		Dir:        dir,
		Factory:    func() *nn.Sequential { return b.Build(b.Spec) },
		Loss:       b.Loss,
		InputDim:   b.Spec.Features,
		MaxBatch:   32,
		MaxWait:    2 * time.Millisecond,
		Replicas:   replicas,
		QueueDepth: 256,
	}
}

// genSeed derives a checkpoint generation's weight-init seed.
func genSeed(seed int64, gen int) int64 { return seed*1000 + int64(gen) }

// writeGeneration saves generation gen of the serving model — seeded,
// untrained weights — into dir, returning its weights and the time the
// checkpoint.Save call took.
func writeGeneration(b *candle.Benchmark, dir string, seed int64, gen int) ([]float64, time.Duration, error) {
	m := b.Build(b.Spec)
	if err := m.Compile(b.Spec.Features, b.Loss, nn.NewSGD(0), genSeed(seed, gen)); err != nil {
		return nil, 0, err
	}
	w := m.WeightsVector()
	snap := &checkpoint.Snapshot{Benchmark: b.Spec.Name, Epoch: gen, Step: gen * 100, Weights: w, DType: "f64"}
	t0 := time.Now()
	err := checkpoint.Save(checkpoint.FileFor(dir, b.Spec.Name, gen), snap)
	return w, time.Since(t0), err
}

// referenceModel is a plain nn.Sequential holding one generation's
// weights, the oracle serving responses are checked against.
func referenceModel(b *candle.Benchmark, weights []float64) (*nn.Sequential, error) {
	m := b.Build(b.Spec)
	if err := m.Compile(b.Spec.Features, b.Loss, nn.NewSGD(0), 1); err != nil {
		return nil, err
	}
	return m, m.SetWeightsVector(weights)
}

// matchesReference reports whether pred equals the reference forward
// of row to within float64 reassociation error.
func matchesReference(ref *nn.Sequential, row, pred []float64) bool {
	out := ref.Predict(tensor.FromSlice(1, len(row), append([]float64(nil), row...))).Row(0)
	if len(out) != len(pred) {
		return false
	}
	for i := range out {
		if math.Abs(out[i]-pred[i]) > 1e-9*math.Max(1, math.Abs(out[i])) {
			return false
		}
	}
	return true
}

// requestRows generates the seeded feature rows requests carry: fresh
// samples from the serving model's dataset distribution.
func requestRows(b *candle.Benchmark, seed int64, n int) ([][]float64, error) {
	spec := b.Spec
	spec.TrainSamples = n
	ds, err := data.Generate(spec, seed)
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = ds.X.Row(i)
	}
	return rows, nil
}

// arrivals is a seeded Poisson arrival schedule: offsets from the
// start of a phase, at rate per second, covering d.
func arrivals(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// phaseStats is what one open-loop phase measured.
type phaseStats struct {
	sent, ok, shed int
	due            []time.Duration // each request's offset in the phase
	// lat is each request's latency in ms, timed from its due time;
	// +Inf for a request that was shed or failed.
	lat            []float64
	queue, service []float64 // ms, answered requests only
	lag            []float64 // ms the generator submitted late
	span           time.Duration
	reqs           []serve.Request
}

// answered returns the latencies of the requests answered.
func (p *phaseStats) answered() []float64 {
	out := make([]float64, 0, p.ok)
	for _, l := range p.lat {
		if !math.IsInf(l, 1) {
			out = append(out, l)
		}
	}
	return out
}

// windows returns the medians over windows (by due time) of the
// phase's p99 latency and of its share of requests that missed the
// limit (a shed or failed request misses it), and the window count.
func (p *phaseStats) windows(window time.Duration) (p99, missed float64, n int) {
	limit := float64(p99Limit) / 1e6
	missShare := func(lats []float64) float64 {
		miss := 0
		for _, l := range lats {
			if l > limit {
				miss++
			}
		}
		return float64(miss) / float64(len(lats))
	}
	p99s := windowed(p.due, p.lat, window, p99Of)
	if len(p99s) == 0 { // too few requests for any window: the whole phase is one
		return p99Of(p.lat), missShare(p.lat), 1
	}
	return median(p99s), median(windowed(p.due, p.lat, window, missShare)), len(p99s)
}

// runPhase submits the schedule open-loop: each request at its due
// time regardless of how many are outstanding.
func runPhase(s *serve.Server, rows [][]float64, sched []time.Duration) *phaseStats {
	n := len(sched)
	p := &phaseStats{sent: n, due: sched, reqs: make([]serve.Request, n), lat: make([]float64, n)}
	index := make(map[*serve.Request]int, n)
	for i := range p.reqs {
		p.reqs[i].Features = rows[i%len(rows)]
		index[&p.reqs[i]] = i
	}
	due := make([]time.Time, n)
	submitted := make([]time.Time, n)
	completed := make([]time.Time, n)
	done := make(chan *serve.Request, n) // every request may be in flight at once
	admitted := make(chan int, 1)
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		want, got := -1, 0
		for want != got {
			select {
			case req := <-done:
				completed[index[req]] = time.Now()
				got++
			case want = <-admitted:
			}
		}
	}()
	start := time.Now().Add(time.Millisecond)
	accepted := 0
	for i, off := range sched {
		due[i] = start.Add(off)
		if wait := time.Until(due[i]); wait > 0 {
			time.Sleep(wait)
		}
		submitted[i] = time.Now()
		p.lag = append(p.lag, float64(submitted[i].Sub(due[i]))/1e6)
		if err := s.Submit(&p.reqs[i], done); err != nil {
			p.shed++
			continue
		}
		accepted++
	}
	admitted <- accepted
	<-collected
	var last time.Time
	for i := range p.reqs {
		req := &p.reqs[i]
		p.lat[i] = math.Inf(1)
		if completed[i].IsZero() {
			continue
		}
		if completed[i].After(last) {
			last = completed[i]
		}
		if req.Err != nil {
			continue
		}
		p.ok++
		wait := float64(req.QueueWait) / 1e6
		p.lat[i] = float64(completed[i].Sub(due[i])) / 1e6
		p.queue = append(p.queue, wait)
		p.service = append(p.service, float64(completed[i].Sub(submitted[i]))/1e6-wait)
	}
	if n > 0 && !last.IsZero() {
		p.span = last.Sub(due[0])
	}
	return p
}

// forwardSeconds reads the total time a server's replicas spent in
// forward passes, from the phase totals its /metrics reports.
func forwardSeconds(h http.Handler) (float64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m struct {
		Phases []struct {
			Name  string  `json:"name"`
			Total float64 `json:"total_seconds"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		return 0, fmt.Errorf("decoding /metrics: %w", err)
	}
	for _, ph := range m.Phases {
		if ph.Name == "forward" {
			return ph.Total, nil
		}
	}
	return 0, nil
}

// servingEnergy models the joules of replicas serving for span
// seconds, busy in forward passes for forward seconds in total: the
// container component model's compute draw while busy, idle draw
// otherwise. Modeled, not measured.
func servingEnergy(replicas int, span, forward float64) float64 {
	model := power.ContainerComponents()
	busy := math.Min(forward, float64(replicas)*span)
	return model.At(power.Compute).Node*busy + model.At(power.Idle).Node*(float64(replicas)*span-busy)
}

// setupRepeats is how many times serve-openloop sets up per run;
// setup_s is their median.
const setupRepeats = 5

func runOpenLoop(r *runner) (*outcome, error) {
	b, err := servingBench()
	if err != nil {
		return nil, err
	}
	weights, saveDur, err := writeGeneration(b, r.dir, r.seed, 1)
	if err != nil {
		return nil, fmt.Errorf("writing checkpoint: %w", err)
	}
	rows, err := requestRows(b, r.seed, 512)
	if err != nil {
		return nil, err
	}
	ref, err := referenceModel(b, weights)
	if err != nil {
		return nil, err
	}
	const replicas = 2
	cfg := serveConfig(b, r.dir, replicas)
	r.start = time.Now()
	workers := tensor.Workers()

	// Set-up: serve.New until the first answered request, repeated.
	var setups []float64
	var s *serve.Server
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s, err = serve.New(cfg)
		if err != nil {
			return nil, err
		}
		if _, _, err := s.Predict(rows[0]); err != nil {
			s.Shutdown(context.Background())
			return nil, fmt.Errorf("first request: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			if err := s.Shutdown(context.Background()); err != nil {
				return nil, err
			}
		}
	}
	defer s.Shutdown(context.Background())

	// The ladder takes at most len(ladder) rungs; the committed rate
	// gets the rest of the measuring time.
	committedFor := max(r.remaining()-time.Duration(len(ladder))*rungFor, 2*time.Second)

	// The committed rate. A measurement whose generator fell behind
	// schedule by more than maxLag measured the host, not the server:
	// it is discarded and taken again, and the run is invalid only if
	// every attempt lagged. Requests of discarded attempts still count
	// toward attempted and failed.
	out := newOutcome()
	var m *committedRun
	for attempt := 1; ; attempt++ {
		m, err = measureCommitted(s, rows, arrivals(r.seed, committedRate, committedFor))
		if err != nil {
			return nil, err
		}
		out.attempted += m.sent
		out.failed += m.sent - m.ok
		if m.lagP99 <= float64(maxLag)/1e6 {
			break
		}
		if attempt == lagAttempts {
			return nil, fmt.Errorf("%w: generator lag p99 %.2f ms exceeds the %v bound in %d attempts", errInvalid, m.lagP99, maxLag, attempt)
		}
		out.note("committed-rate attempt %d discarded: generator lag p99 %.2f ms", attempt, m.lagP99)
	}
	committed := m.phaseStats
	// Peak memory of the committed-rate service; the ladder's overload
	// probe would make it depend on how far up the ladder a run got.
	out.e2e["peak_rss_mb"] = m.peakRSS
	checkSample(out, r.seed, committed, rows, ref)
	out.check("admitted", out.failed == 0, "%d/%d requests answered at %.0f req/s", out.attempted-out.failed, out.attempted, committedRate)

	// The ladder: every rate in turn. A rate meets the p99 limit when
	// at most 1% of its requests miss it (a shed request misses). The
	// share missed is made non-decreasing in the rate (pooling adjacent
	// rates that violate that, so one rate spoiled by a host stall does
	// not end the search) and interpolated to 1%: max_rate_rps. Sheds
	// above the crossing are the probe's finding, not committed-rate
	// failures.
	miss := make([]float64, len(ladder))
	for i, rate := range ladder {
		ph := runPhase(s, rows, arrivals(r.seed+int64(i)+1, rate, rungFor))
		var p99 float64
		var wins int
		p99, miss[i], wins = ph.windows(windowFor(rate))
		out.note("ladder %6.0f req/s: p99 %.2f ms, %.2f%% over the limit (medians of %d windows), shed %d", rate, p99, 100*miss[i], wins, ph.shed)
	}
	maxRate := crossing(ladder, monotone(miss), maxMiss)

	span := committed.span.Seconds()
	good := float64(committed.ok) / span
	lat := committed.answered()
	p99, _, wins := committed.windows(windowFor(committedRate))
	out.e2e["time_to_target_s"] = span
	out.e2e["energy_to_target_j"] = servingEnergy(replicas, span, m.forward)
	out.e2e["samples_per_s"] = good
	out.e2e["setup_s"] = median(setups)
	out.e2e["latency_p50_ms"] = median(lat)
	out.e2e["goodput_rps"] = good
	out.e2e["success_ratio"] = float64(committed.ok) / float64(committed.sent)
	out.note("committed rate: %d requests over %.2f s, p99 is the median of %d windows; whole-phase p%.1f %.2f ms",
		committed.sent, span, wins, tailPercentile(lat, 99).P, tailPercentile(lat, 99).Value)
	out.note("generator lag p50 %.3f ms, p99 %.3f ms (bound %v)", median(committed.lag), m.lagP99, maxLag)

	out.layers["latency_p99_ms"] = p99
	out.layers["max_rate_rps"] = maxRate
	out.layers["serve.queue_wait_ms_p50"] = median(committed.queue)
	out.layers["serve.queue_wait_ms_p99"] = tailPercentile(committed.queue, 99).Value
	out.layers["serve.batch_rows_mean"] = m.batches.Mean()
	out.layers["serve.service_ms_mean"] = mean(committed.service)
	out.layers["serve.shed"] = float64(s.Metrics().Rejected())
	out.layers["generator.lag_ms_p99"] = m.lagP99
	out.layers["checkpoint.save_ms"] = float64(saveDur) / 1e6
	out.layers["tensor.workers"] = float64(workers)
	out.layers["runtime.gc_cpu_fraction"] = m.gcFrac
	out.layers["runtime.allocs_per_step"] = float64(m.mallocs) / float64(committed.sent)
	out.layers["layer.dominant_share"] = (mean(committed.queue) + mean(committed.service)) / mean(lat)
	return out, nil
}

// committedRun is one measurement at the committed rate, with the
// server and runtime counters taken around it.
type committedRun struct {
	*phaseStats
	lagP99  float64 // ms
	forward float64 // replica seconds in forward passes
	batches trace.HistogramSnapshot
	peakRSS float64
	gcFrac  float64
	mallocs uint64
}

func measureCommitted(s *serve.Server, rows [][]float64, sched []time.Duration) (*committedRun, error) {
	fwd0, err := forwardSeconds(s.Handler())
	if err != nil {
		return nil, err
	}
	batch0 := s.Metrics().BatchSize().Snapshot()
	cleanHeap()
	rss := sampleRSS()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := readGCCPU()
	ph := runPhase(s, rows, sched)
	m := &committedRun{phaseStats: ph, peakRSS: rss.end(), gcFrac: readGCCPU().fractionSince(gc0)}
	runtime.ReadMemStats(&ms1)
	m.mallocs = ms1.Mallocs - ms0.Mallocs
	fwd1, err := forwardSeconds(s.Handler())
	if err != nil {
		return nil, err
	}
	m.forward = fwd1 - fwd0
	m.batches = s.Metrics().BatchSize().Snapshot().Delta(batch0)
	m.lagP99 = quantile(ph.lag, 0.99)
	return m, nil
}

// monotone returns the non-decreasing sequence closest to ys in the
// least-squares sense (pool-adjacent-violators, equal weights).
func monotone(ys []float64) []float64 {
	type block struct {
		sum float64
		n   int
	}
	var blocks []block
	for _, y := range ys {
		blocks = append(blocks, block{y, 1})
		for len(blocks) > 1 {
			a, b := blocks[len(blocks)-2], blocks[len(blocks)-1]
			if a.sum/float64(a.n) <= b.sum/float64(b.n) {
				break
			}
			blocks = append(blocks[:len(blocks)-2], block{a.sum + b.sum, a.n + b.n})
		}
	}
	out := make([]float64, 0, len(ys))
	for _, b := range blocks {
		for i := 0; i < b.n; i++ {
			out = append(out, b.sum/float64(b.n))
		}
	}
	return out
}

// crossing interpolates the rate at which the non-decreasing share
// missed first exceeds limit: between the last rate at or under it and
// the first over it (from the origin when the first rate is over), or
// the top rate when none is over.
func crossing(rates, missed []float64, limit float64) float64 {
	loRate, loMiss := 0.0, 0.0
	for i, m := range missed {
		if m > limit {
			return loRate + (rates[i]-loRate)*(limit-loMiss)/(m-loMiss)
		}
		loRate, loMiss = rates[i], m
	}
	return loRate
}

// checkSample compares a seeded sample of answered requests against
// the reference model's forward of the same row.
func checkSample(out *outcome, seed int64, p *phaseStats, rows [][]float64, ref *nn.Sequential) {
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(p.reqs))
	if len(idx) > 64 {
		idx = idx[:64]
	}
	sort.Ints(idx)
	bad := 0
	for _, i := range idx {
		req := &p.reqs[i]
		if req.Err != nil || !matchesReference(ref, rows[i%len(rows)], req.Pred) {
			bad++
		}
	}
	out.check("responses", bad == 0 && len(idx) > 0, "%d/%d sampled responses match the reference forward", len(idx)-bad, len(idx))
}
