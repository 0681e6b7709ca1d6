package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"candle/internal/candle"
	"candle/internal/fleet"
	"candle/internal/nn"
	"candle/internal/serve"
	"candle/internal/tensor"
)

// The fleet-http workload: an in-process fleet.Router over loopback
// TCP in front of two serve.Server replicas at the candle-fleet
// defaults, driven by a closed loop of two client connections posting
// JSON /predict, while the benchmark saves a new checkpoint generation
// and runs a coordinated Router.Reload at a fixed cadence.

var fleetHTTP = workload{
	name:     "fleet-http",
	why:      "router + 2 replicas over loopback HTTP, closed loop of 2 connections, new checkpoint + Router.Reload every 2 s: router, HTTP codec, two-phase reload",
	dominant: "serve",
	run:      runFleet,
}

const (
	fleetReplicas = 2
	fleetConns    = 2
	reloadEvery   = 2 * time.Second
	// fleetTarget is the request count time_to_target_s races to: about
	// half the loop at the rates this workload sees on a 2-core host.
	fleetTarget = 8000
	// fleetSetups is how many times a run sets the fleet up; setup_s is
	// their median.
	fleetSetups = 9
)

// fleetStack is one running router plus its replicas.
type fleetStack struct {
	router  *fleet.Router
	servers []*serve.Server
	base    string // router base URL
	lns     []net.Listener
	wg      sync.WaitGroup
}

// startFleet brings up the router and replicas and waits until the
// router's /healthz reports every replica route-eligible.
func startFleet(b *candle.Benchmark, dir string) (*fleetStack, error) {
	f := &fleetStack{router: fleet.NewRouter(fleet.Config{
		// The benchmark drives reloads itself, at a fixed cadence.
		ReloadEvery: -1,
	})}
	ctlLn, err := f.listen()
	if err != nil {
		return f, err
	}
	httpLn, err := f.listen()
	if err != nil {
		return f, err
	}
	f.base = "http://" + httpLn.Addr().String()
	f.serve(func() error { return f.router.ServeControl(ctlLn) })
	f.serve(func() error { return f.router.Serve(httpLn) })

	cfg := serveConfig(b, dir, 1) // process-level replication: the fleet is the pool
	cfg.ReloadEvery = -1          // the router coordinates reloads fleet-wide
	for i := 0; i < fleetReplicas; i++ {
		s, err := serve.New(cfg)
		if err != nil {
			return f, err
		}
		f.servers = append(f.servers, s)
		ln, err := f.listen()
		if err != nil {
			return f, err
		}
		f.serve(func() error { return s.Serve(ln) })
		epoch, step := s.Generation()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err = fleet.Register(ctx, "tcp", ctlLn.Addr().String(), fmt.Sprintf("r%d", i), ln.Addr().String(), epoch, step)
		cancel()
		if err != nil {
			return f, fmt.Errorf("registering replica %d: %w", i, err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		var h struct {
			Status   string `json:"status"`
			Eligible int    `json:"eligible"`
		}
		if err := getJSON(http.DefaultClient, f.base+"/healthz", &h); err == nil && h.Status == "ok" && h.Eligible == fleetReplicas {
			return f, nil
		}
		if time.Now().After(deadline) {
			return f, errors.New("fleet never reported healthy")
		}
	}
}

func (f *fleetStack) listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err == nil {
		f.lns = append(f.lns, ln)
	}
	return ln, err
}

func (f *fleetStack) serve(fn func() error) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = fn() // returns once stop closes the listener
	}()
}

// stop drains the router and replicas, closes every listener and
// waits for all serving goroutines to return.
func (f *fleetStack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = f.router.Shutdown(ctx)
	for _, s := range f.servers {
		_ = s.Shutdown(ctx)
	}
	for _, ln := range f.lns {
		ln.Close()
	}
	f.wg.Wait()
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// predictReply is the /predict response the client checks.
type predictReply struct {
	Prediction   []float64 `json:"prediction"`
	QueueSeconds float64   `json:"queue_seconds"`
	Epoch        int       `json:"epoch"`
}

// sampled is one response kept for the reference check.
type sampled struct {
	row   int
	epoch int
	pred  []float64
}

// connStats is one client connection's record.
type connStats struct {
	sent, ok   int
	lat, queue []float64       // ms
	at         []time.Duration // when each request was sent, from the loop's start
	epochs     []int           // generation sequence as observed, deduplicated
	decreased  bool
	errs       []string
	samples    []sampled
}

func runFleet(r *runner) (*outcome, error) {
	b, err := servingBench()
	if err != nil {
		return nil, err
	}
	gens := map[int][]float64{}
	w, _, err := writeGeneration(b, r.dir, r.seed, 1)
	if err != nil {
		return nil, fmt.Errorf("writing checkpoint: %w", err)
	}
	gens[1] = w
	rows, err := requestRows(b, r.seed, 512)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(rows))
	for i, row := range rows {
		if bodies[i], err = json.Marshal(map[string][]float64{"features": row}); err != nil {
			return nil, err
		}
	}
	r.start = time.Now()
	workers := tensor.Workers()

	// Set-up: router plus replicas until /healthz reports ok, repeated.
	var setups []float64
	var f *fleetStack
	for i := 0; i < fleetSetups; i++ {
		t0 := time.Now()
		f, err = startFleet(b, r.dir)
		if err != nil {
			f.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < fleetSetups-1 {
			f.stop()
		}
	}
	defer f.stop()

	out := newOutcome()
	cleanHeap()
	rss := sampleRSS()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := readGCCPU()
	start := time.Now()
	deadline := start.Add(r.remaining())
	var answered atomic.Int64
	var targetAt time.Duration
	var targetOnce sync.Once

	// Reloads: a new generation every reloadEvery until the deadline.
	var saves, reloads []float64
	var reloadErrs []string
	stopReload := make(chan struct{})
	reloadDone := make(chan struct{})
	go func() {
		defer close(reloadDone)
		tick := time.NewTicker(reloadEvery)
		defer tick.Stop()
		for gen := 2; ; gen++ {
			select {
			case <-stopReload:
				return
			case <-tick.C:
			}
			w, save, err := writeGeneration(b, r.dir, r.seed, gen)
			if err != nil {
				reloadErrs = append(reloadErrs, err.Error())
				return
			}
			gens[gen] = w
			t0 := time.Now()
			epoch, _, err := f.router.Reload()
			reloads = append(reloads, time.Since(t0).Seconds())
			saves = append(saves, float64(save)/1e6)
			if err != nil || epoch != gen {
				reloadErrs = append(reloadErrs, fmt.Sprintf("reload to generation %d ended on %d: %v", gen, epoch, err))
				return
			}
		}
	}()

	conns := make([]*connStats, fleetConns)
	var wg sync.WaitGroup
	for c := range conns {
		cs := &connStats{}
		conns[c] = cs
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// One keep-alive connection per client.
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			rng := rand.New(rand.NewSource(r.seed*31 + int64(c)))
			for time.Now().Before(deadline) {
				i := rng.Intn(len(rows))
				cs.sent++
				t0 := time.Now()
				reply, err := post(client, f.base+"/predict", bodies[i])
				lat := time.Since(t0)
				if err != nil {
					cs.errs = append(cs.errs, err.Error())
					continue
				}
				cs.ok++
				if answered.Add(1) == fleetTarget {
					targetOnce.Do(func() { targetAt = time.Since(start) })
				}
				cs.lat = append(cs.lat, float64(lat)/1e6)
				cs.at = append(cs.at, t0.Sub(start))
				cs.queue = append(cs.queue, reply.QueueSeconds*1e3)
				if n := len(cs.epochs); n == 0 || cs.epochs[n-1] != reply.Epoch {
					if n > 0 && reply.Epoch < cs.epochs[n-1] {
						cs.decreased = true
					}
					cs.epochs = append(cs.epochs, reply.Epoch)
				}
				if rng.Intn(64) == 0 {
					cs.samples = append(cs.samples, sampled{row: i, epoch: reply.Epoch, pred: reply.Prediction})
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopReload)
	<-reloadDone
	peakRSS := rss.end()
	gcFrac := readGCCPU().fractionSince(gc0)
	runtime.ReadMemStats(&ms1)

	// Pool the connections.
	var lat, queue []float64
	var at []time.Duration
	var sent, ok int
	monotonic := true
	for c, cs := range conns {
		sent += cs.sent
		ok += cs.ok
		lat = append(lat, cs.lat...)
		at = append(at, cs.at...)
		queue = append(queue, cs.queue...)
		if cs.decreased {
			monotonic = false
		}
		out.note("connection %d: %d requests, generations %v", c, cs.sent, cs.epochs)
		for _, e := range cs.errs[:min(len(cs.errs), 3)] {
			out.note("connection %d error: %s", c, e)
		}
	}
	out.attempted = sent
	out.failed = sent - ok
	out.check("admitted", ok == sent && sent > 0, "%d/%d requests answered 200 through the router", ok, sent)
	out.check("generations", monotonic, "every connection's generation sequence never decreases across reload waves")
	out.check("reloads", len(reloadErrs) == 0 && len(reloads) > 0, "%d coordinated reloads each committed the new generation %v", len(reloads), reloadErrs)
	checkFleetSamples(out, b, conns, rows, gens)

	// Router and replica latency means, from their public histograms.
	routerLat := f.router.Metrics().Latency()
	var repSum, repCount, batchSum, batchRuns, shed, forward float64
	for _, s := range f.servers {
		m := s.Metrics()
		repSum += m.Latency().Sum()
		repCount += float64(m.Latency().Count())
		batchSum += m.BatchSize().Sum()
		batchRuns += float64(m.BatchSize().Count())
		shed += float64(m.Rejected())
		fwd, err := forwardSeconds(s.Handler())
		if err != nil {
			return nil, err
		}
		forward += fwd
	}
	routerMs := routerLat.Mean() * 1e3
	replicaMs := repSum / repCount * 1e3
	clientMs := mean(lat)

	good := float64(ok) / elapsed.Seconds()
	// p99 per reload period, median over periods: each window holds
	// one commit wave.
	p99s := windowed(at, lat, reloadEvery, p99Of)
	target := targetAt.Seconds()
	if target == 0 {
		out.check("target", false, "fewer than %d requests answered", fleetTarget)
	}
	out.e2e["time_to_target_s"] = target
	// Forward seconds are read once, at the end: the busy share up to
	// the target is taken as the whole loop's.
	out.e2e["energy_to_target_j"] = servingEnergy(fleetReplicas, target, forward*target/elapsed.Seconds())
	out.e2e["samples_per_s"] = good
	out.e2e["setup_s"] = median(setups)
	out.e2e["latency_p50_ms"] = median(lat)
	out.e2e["goodput_rps"] = good
	out.e2e["success_ratio"] = float64(ok) / float64(sent)
	out.e2e["peak_rss_mb"] = peakRSS
	whole := tailPercentile(lat, 99)
	out.note("%d requests over %.2f s; p99 is the median of %d %v windows; whole-run p%.1f %.2f ms",
		sent, elapsed.Seconds(), len(p99s), reloadEvery, whole.P, whole.Value)

	out.layers["latency_p99_ms"] = median(p99s)
	out.layers["serve.queue_wait_ms_p50"] = median(queue)
	out.layers["serve.queue_wait_ms_p99"] = tailPercentile(queue, 99).Value
	out.layers["serve.batch_rows_mean"] = batchSum / batchRuns
	out.layers["serve.service_ms_mean"] = replicaMs - mean(queue)
	out.layers["serve.shed"] = shed
	out.layers["fleet.route_ms_mean"] = routerMs - replicaMs
	out.layers["http.client_ms_mean"] = clientMs - routerMs
	out.layers["fleet.failovers"] = float64(f.router.Metrics().Failovers())
	out.layers["fleet.reload_s"] = median(reloads)
	out.layers["checkpoint.save_ms"] = median(saves)
	out.layers["tensor.workers"] = float64(workers)
	out.layers["runtime.gc_cpu_fraction"] = gcFrac
	out.layers["runtime.allocs_per_step"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(sent)
	out.layers["layer.dominant_share"] = mean(queue) / clientMs
	return out, nil
}

// post sends one /predict and decodes a 200 reply; any other status is
// an error.
func post(c *http.Client, url string, body []byte) (predictReply, error) {
	var reply predictReply
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return reply, json.Unmarshal(raw, &reply)
}

// checkFleetSamples compares the sampled responses with a reference
// forward on the weights of the generation each response names.
func checkFleetSamples(out *outcome, b *candle.Benchmark, conns []*connStats, rows [][]float64, gens map[int][]float64) {
	refs := map[int]*nn.Sequential{}
	n, bad := 0, 0
	for _, cs := range conns {
		for _, s := range cs.samples {
			n++
			ref, ok := refs[s.epoch]
			if !ok {
				w, known := gens[s.epoch]
				if !known {
					bad++
					continue
				}
				var err error
				if ref, err = referenceModel(b, w); err != nil {
					bad++
					continue
				}
				refs[s.epoch] = ref
			}
			if !matchesReference(ref, rows[s.row], s.pred) {
				bad++
			}
		}
	}
	out.check("responses", n > 0 && bad == 0, "%d/%d sampled responses match the reference forward of their generation", n-bad, n)
}
