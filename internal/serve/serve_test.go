package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"candle/internal/checkpoint"
	"candle/internal/nn"
	"candle/internal/tensor"
)

// ---- test scaffolding ----------------------------------------------

const (
	testBench = "T"
	testDim   = 6
	testOut   = 3
)

func testFactory() *nn.Sequential {
	return nn.NewSequential("t",
		nn.NewDense(8), nn.NewReLU(),
		nn.NewDense(testOut), nn.NewSoftmax(),
	)
}

// writeCkpt compiles a fresh model with the given seed, saves it as a
// snapshot for epoch, and returns the reference model for output
// comparison.
func writeCkpt(t *testing.T, dir string, epoch int, seed int64) *nn.Sequential {
	t.Helper()
	m := testFactory()
	if err := m.Compile(testDim, nn.CategoricalCrossEntropy{}, nn.NewSGD(0.01), seed); err != nil {
		t.Fatal(err)
	}
	s := &checkpoint.Snapshot{
		Benchmark: testBench,
		Epoch:     epoch,
		Step:      epoch * 100,
		Weights:   m.WeightsVector(),
	}
	if err := checkpoint.Save(checkpoint.FileFor(dir, testBench, epoch), s); err != nil {
		t.Fatal(err)
	}
	return m
}

func testConfig(dir string) Config {
	return Config{
		Benchmark:   testBench,
		Dir:         dir,
		Factory:     testFactory,
		Loss:        nn.CategoricalCrossEntropy{},
		InputDim:    testDim,
		MaxBatch:    8,
		MaxWait:     5 * time.Millisecond,
		Replicas:    2,
		QueueDepth:  64,
		ReloadEvery: -1, // reload only via TryReload in tests
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func row(rng *rand.Rand) []float64 {
	r := make([]float64, testDim)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	return r
}

// makeRows pre-generates rows on the caller's goroutine (rand.Rand is
// not concurrency-safe).
func makeRows(rng *rand.Rand, n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = row(rng)
	}
	return rows
}

// ---- engine tests --------------------------------------------------

func TestNewRequiresCheckpoint(t *testing.T) {
	cfg := testConfig(t.TempDir())
	if _, err := New(cfg); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("empty dir: got %v, want ErrNoCheckpoint", err)
	}
}

func TestPredictMatchesReferenceUnderBatching(t *testing.T) {
	dir := t.TempDir()
	ref := writeCkpt(t, dir, 1, 42)
	s := newTestServer(t, testConfig(dir))

	rng := rand.New(rand.NewSource(9))
	const n = 24
	rows := make([][]float64, n)
	wants := make([][]float64, n)
	for i := range rows {
		rows[i] = row(rng)
		x := tensor.FromSlice(1, testDim, rows[i])
		wants[i] = append([]float64(nil), ref.Predict(x).Data...)
	}

	var wg sync.WaitGroup
	got := make([][]float64, n)
	infos := make([]PredictInfo, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], infos[i], errs[i] = s.Predict(rows[i])
		}(i)
	}
	wg.Wait()

	coalesced := false
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		for j := range wants[i] {
			if got[i][j] != wants[i][j] {
				t.Fatalf("request %d output %d: %v != reference %v (batching changed the math)",
					i, j, got[i][j], wants[i][j])
			}
		}
		if infos[i].BatchSize > 1 {
			coalesced = true
		}
	}
	if !coalesced {
		t.Error("no request was served in a coalesced batch (batcher inert?)")
	}
	if forwards := s.metrics.batchSize.Count(); forwards >= uint64(n) {
		t.Errorf("ran %d forwards for %d requests: batching saved nothing", forwards, n)
	}
}

func TestPredictWrongWidth(t *testing.T) {
	dir := t.TempDir()
	writeCkpt(t, dir, 1, 42)
	s := newTestServer(t, testConfig(dir))
	if _, _, err := s.Predict([]float64{1, 2}); !errors.Is(err, ErrBadWidth) {
		t.Fatalf("got %v, want ErrBadWidth", err)
	}
}

// TestOverloadRejects: with the only replica busy, a batch waiting
// for it, and the queue full, the next request must bounce
// immediately with ErrOverloaded — admission control never blocks.
func TestOverloadRejects(t *testing.T) {
	dir := t.TempDir()
	writeCkpt(t, dir, 1, 42)
	cfg := testConfig(dir)
	cfg.Replicas = 1
	cfg.MaxBatch = 1 // no coalescing: each stage of backpressure is visible
	cfg.QueueDepth = 1
	s := newTestServer(t, cfg)

	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	s.testHookForward = func() {
		entered <- struct{}{}
		<-release
	}

	rng := rand.New(rand.NewSource(3))
	rows := makeRows(rng, 4)
	next := 0
	results := make(chan error, 3)
	fire := func() {
		r := rows[next]
		next++
		go func() { _, _, err := s.Predict(r); results <- err }()
	}

	// r1 occupies the replica (parked in the hook).
	fire()
	<-entered
	// r2: the batcher takes it off the queue and blocks waiting for
	// the busy replica.
	fire()
	waitFor(t, func() bool { return s.metrics.Requests() == 2 && s.QueueDepth() == 0 })
	// r3 fills the depth-1 queue.
	fire()
	waitFor(t, func() bool { return s.QueueDepth() == 1 })
	// r4: queue full -> immediate 429.
	start := time.Now()
	_, _, err := s.Predict(row(rng))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded", err)
	}
	if since := time.Since(start); since > 100*time.Millisecond {
		t.Fatalf("overload rejection took %v; admission control must not block", since)
	}
	close(release) // let r1..r3 finish
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	if got := s.metrics.Rejected(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestShutdownDrains is the kill -TERM contract, over real HTTP: every
// request admitted before shutdown gets its 200, the flush happens
// immediately rather than after MaxWait, and later requests are
// turned away.
func TestShutdownDrains(t *testing.T) {
	dir := t.TempDir()
	writeCkpt(t, dir, 1, 42)
	cfg := testConfig(dir)
	cfg.Replicas = 1
	cfg.MaxBatch = 64
	cfg.MaxWait = 10 * time.Second // only a drain flush can beat this
	cfg.QueueDepth = 64
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	rng := rand.New(rand.NewSource(5))
	const k = 8
	rows := makeRows(rng, k)
	codes := make(chan int, k)
	for i := 0; i < k; i++ {
		go func(i int) {
			body, _ := json.Marshal(map[string]any{"features": rows[i]})
			resp, err := http.Post(url+"/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				codes <- -1
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}(i)
	}
	// All k admitted and parked waiting for a batch that cannot fill.
	waitFor(t, func() bool { return s.metrics.Requests() == k })

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("drain took %v; the drain flush should beat MaxWait=10s", took)
	}
	for i := 0; i < k; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("request dropped during drain: status %d", code)
		}
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	// Post-drain requests are refused at the engine level too.
	if _, _, err := s.Predict(row(rng)); !errors.Is(err, ErrDraining) {
		t.Fatalf("after shutdown: got %v, want ErrDraining", err)
	}
}

// TestServeAfterShutdownReturns: a Shutdown that lands before Serve
// (a SIGTERM right after the server looked ready) must still end
// Serve, which returns at once and releases the listener.
func TestServeAfterShutdownReturns(t *testing.T) {
	dir := t.TempDir()
	writeCkpt(t, dir, 1, 42)
	s := newTestServer(t, testConfig(dir))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		ln.Close()
		t.Fatal("Serve after Shutdown never returned")
	}
	if _, err := ln.Accept(); err == nil {
		t.Fatal("listener still open after Serve returned")
	}
}

// ---- HTTP tests ----------------------------------------------------

func startHTTP(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	return "http://" + ln.Addr().String()
}

func postPredict(t *testing.T, url string, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/predict", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&decoded)
	return resp, decoded
}

func TestHTTPPredictAndObservability(t *testing.T) {
	dir := t.TempDir()
	writeCkpt(t, dir, 4, 42)
	s := newTestServer(t, testConfig(dir))
	url := startHTTP(t, s)

	features := make([]float64, testDim)
	for i := range features {
		features[i] = float64(i) / 10
	}
	body, _ := json.Marshal(map[string]any{"features": features})
	resp, decoded := postPredict(t, url, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, decoded)
	}
	pred, ok := decoded["prediction"].([]any)
	if !ok || len(pred) != testOut {
		t.Fatalf("prediction = %v, want %d values", decoded["prediction"], testOut)
	}
	sum := 0.0
	for _, v := range pred {
		sum += v.(float64)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("softmax outputs sum to %v, want 1", sum)
	}
	if decoded["epoch"].(float64) != 4 {
		t.Fatalf("epoch = %v, want 4", decoded["epoch"])
	}

	// /healthz
	hr, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	_ = json.NewDecoder(hr.Body).Decode(&health)
	hr.Body.Close()
	if health["status"] != "ok" || health["epoch"].(float64) != 4 {
		t.Fatalf("healthz = %v", health)
	}

	// /metrics
	mr, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]any
	_ = json.NewDecoder(mr.Body).Decode(&metrics)
	mr.Body.Close()
	if metrics["requests"].(float64) < 1 {
		t.Fatalf("metrics = %v", metrics)
	}
	if _, ok := metrics["latency_seconds"].(map[string]any); !ok {
		t.Fatalf("metrics missing latency histogram: %v", metrics)
	}
}

func TestHTTPPredictErrors(t *testing.T) {
	dir := t.TempDir()
	writeCkpt(t, dir, 1, 42)
	s := newTestServer(t, testConfig(dir))
	url := startHTTP(t, s)

	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"empty", "", http.StatusBadRequest, "empty_body"},
		{"garbage", "{not json", http.StatusBadRequest, "bad_json"},
		{"unknown field", `{"features":[1,2,3,4,5,6],"x":1}`, http.StatusBadRequest, "bad_json"},
		{"trailing", `{"features":[1,2,3,4,5,6]}{"a":1}`, http.StatusBadRequest, "bad_json"},
		{"missing features", `{}`, http.StatusBadRequest, "missing_features"},
		{"short row", `{"features":[1,2]}`, http.StatusUnprocessableEntity, "feature_count"},
		{"long row", `{"features":[1,2,3,4,5,6,7]}`, http.StatusUnprocessableEntity, "feature_count"},
		{"huge number", `{"features":[1e999,2,3,4,5,6]}`, http.StatusBadRequest, "bad_json"},
		{"string feature", `{"features":["a",2,3,4,5,6]}`, http.StatusBadRequest, "bad_json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, decoded := postPredict(t, url, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%v)", resp.StatusCode, tc.status, decoded)
			}
			if decoded["code"] != tc.code {
				t.Fatalf("code %v, want %q", decoded["code"], tc.code)
			}
		})
	}

	// Wrong method.
	resp, err := http.Get(url + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict = %d, want 405", resp.StatusCode)
	}
}
