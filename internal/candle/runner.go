package candle

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"candle/internal/checkpoint"
	"candle/internal/csvio"
	"candle/internal/data"
	"candle/internal/dataload"
	"candle/internal/horovod"
	"candle/internal/mpi"
	"candle/internal/nn"
	"candle/internal/tensor"
	"candle/internal/trace"
	"candle/internal/transport"
)

// RunConfig controls one real-mode benchmark run.
type RunConfig struct {
	// Ranks is the number of in-process workers (goroutines).
	Ranks int
	// TotalEpochs is divided over ranks (strong scaling,
	// comp_epochs-balanced) unless WeakScaling is set, in which case
	// every rank runs TotalEpochs epochs.
	TotalEpochs int
	WeakScaling bool
	// Batch overrides the benchmark's default batch size when > 0.
	Batch int
	// DType selects the training compute precision: "f32" runs the
	// packed float32 kernels with fused Dense/LSTM passes (f64 master
	// weights, f32 compute); "f64" or "" is the double-precision
	// reference path. Checkpoints record the precision they were
	// trained at.
	DType string
	// Engine selects the phase-1 CSV engine by registry name
	// ("naive", "chunked", "parallel", "sharded", ...; see
	// csvio.Engines). Empty means "naive". The runner builds one
	// engine instance per rank; the sharded streaming engine
	// additionally gets its rank's communicator and the run's
	// timeline, so each rank parses only its own byte-range shard.
	Engine string
	// CacheDir overrides where the sharded engine's binary cache
	// files live; empty means alongside the source CSVs.
	CacheDir string
	// DataDir holds the CSV files; PrepareData must have run, or set
	// Generate to create them on the fly.
	DataDir string
	// Seed controls data generation and weight init.
	Seed int64
	// ScaleLR applies the paper's linear learning-rate scaling.
	ScaleLR bool
	// LR overrides the benchmark's Table 1 learning rate when > 0
	// (scaled-down datasets often need a larger rate to learn in few
	// epochs).
	LR float64
	// Timeline, when non-nil, records Horovod communication events.
	Timeline *trace.Timeline
	// FusionBytes is passed to the Horovod layer (0 = default 64 MB).
	FusionBytes int
	// Overlap enables the asynchronous gradient pipeline: allreduce
	// runs in a background coordinator while Backward is still
	// computing earlier layers' gradients. Results are bit-identical
	// to the synchronous path.
	Overlap bool
	// CycleTime is the overlap coordinator's wake cadence (Horovod's
	// HOROVOD_CYCLE_TIME); 0 processes gradients as they arrive.
	CycleTime time.Duration
	// CheckpointDir enables checkpoint/restart: rank 0 snapshots the
	// model every CheckpointEvery epochs (default 1), and Resume
	// restores the latest snapshot before training.
	CheckpointDir   string
	CheckpointEvery int
	Resume          bool
	// Continue changes what Resume (or an elastic restart) does with
	// TotalEpochs: instead of training the full epoch budget again on
	// top of the restored weights (the historical behavior, which
	// treats the checkpoint as a warm start), the run treats
	// TotalEpochs as the global target and trains only the remaining
	// epochs, replaying the uninterrupted run's per-epoch RNG streams
	// and checkpoint numbering. With optimizer state in the snapshot
	// this makes interrupted-and-resumed ≡ uninterrupted, bit for bit
	// — the invariant candle-sim checks.
	Continue bool
	// ParameterServer trains with the centralized gRPC-style baseline
	// instead of the Horovod allreduce optimizer.
	ParameterServer bool
	// ValidationFrac holds out the last fraction of the training rows
	// for per-epoch cross-validation (Figure 2's "basic training and
	// cross-validation" phase). 0 disables it.
	ValidationFrac float64
	// Faults scripts deterministic failures (kills, delays, link
	// drops) into the MPI substrate. Consumed faults do not re-fire,
	// so a plan is safe to share across elastic restarts.
	Faults *mpi.FaultPlan
	// Elastic turns rank failures into restarts: the run resumes on a
	// world shrunk by the failed ranks, restoring from the latest
	// checkpoint when CheckpointDir is set. Without it a rank failure
	// aborts the run with a *mpi.RankFailedError. In distributed mode
	// (Rendezvous set) elasticity belongs to the launcher, which
	// respawns a new generation; Validate rejects the combination.
	Elastic bool
	// Transport selects the rank link layer: "" or "inproc" hosts
	// every rank in this process over channels; "unix" or "tcp" makes
	// this process one worker of a multi-process world whose
	// cross-process links run over internal/transport connections.
	Transport string
	// Rendezvous is the control-plane address of the candle-launch
	// rendezvous server. Setting it switches Run into distributed
	// worker mode: Ranks is then the expected total world size and
	// LocalRanks the share this process hosts.
	Rendezvous string
	// RendezvousNetwork is the control-plane socket family; empty
	// derives it from the transport ("tcp" for tcp, "unix" otherwise).
	RendezvousNetwork string
	// LocalRanks is how many of the world's ranks this process hosts
	// (distributed mode only).
	LocalRanks int
	// ProcIndex is this process's index in the launch group; rank
	// ranges are assigned in proc order.
	ProcIndex int
	// Generation is the elastic generation stamp from the launcher;
	// stale workers from a previous generation are rejected at
	// rendezvous and hello time.
	Generation int
	// KeepWeights records every rank's full final weight vector in its
	// RankResult. Off by default: it is a full model copy per rank,
	// wanted only by bit-identity checks like candle-sim's.
	KeepWeights bool
	// TrackEpochs records a per-epoch trajectory in rank 0's
	// RankResult: the run clock at each epoch end plus the model's test
	// loss/accuracy evaluated there. This is how the e2e benchmark
	// harness measures wall-clock-to-target-accuracy. Only rank 0
	// evaluates (a pure forward pass, no collectives), so replicas stay
	// bit-identical; the evaluation time is real wall time and is
	// included in the run like any measurement probe would be.
	TrackEpochs bool
}

// Validate checks the static side of the config: Engine must name a
// registered engine, DType must parse, and the transport/rendezvous
// fields must form a coherent mode — a distributed transport without a
// rendezvous address (or vice versa for the per-process fields) is
// rejected here rather than hanging at join time.
func (cfg *RunConfig) Validate() error {
	if cfg.Engine != "" {
		if _, err := csvio.ByName(cfg.Engine); err != nil {
			return err
		}
	}
	if cfg.DType != "" {
		if _, err := tensor.ParseDType(cfg.DType); err != nil {
			return err
		}
	}
	if cfg.Transport != "" {
		if _, err := transport.ByName(cfg.Transport); err != nil {
			return err
		}
	}
	distributed := cfg.Transport != "" && cfg.Transport != "inproc"
	if distributed && cfg.Rendezvous == "" {
		return fmt.Errorf("candle: transport %q needs a rendezvous address", cfg.Transport)
	}
	if cfg.Rendezvous != "" {
		if cfg.LocalRanks <= 0 {
			return fmt.Errorf("candle: distributed mode needs local ranks > 0, got %d", cfg.LocalRanks)
		}
		if cfg.Ranks > 0 && cfg.LocalRanks > cfg.Ranks {
			return fmt.Errorf("candle: local ranks %d exceed world size %d", cfg.LocalRanks, cfg.Ranks)
		}
		if cfg.ProcIndex < 0 {
			return fmt.Errorf("candle: proc index must be non-negative, got %d", cfg.ProcIndex)
		}
		if cfg.Elastic {
			return fmt.Errorf("candle: elastic restarts in distributed mode belong to the launcher; run candle-launch -elastic instead")
		}
	} else {
		if cfg.LocalRanks > 0 {
			return fmt.Errorf("candle: local ranks set without a rendezvous address")
		}
		if cfg.ProcIndex != 0 {
			return fmt.Errorf("candle: proc index set without a rendezvous address")
		}
		if cfg.Generation != 0 {
			return fmt.Errorf("candle: generation set without a rendezvous address")
		}
	}
	return nil
}

// rendezvousNetwork resolves the control-plane socket family.
func (cfg *RunConfig) rendezvousNetwork() string {
	if cfg.RendezvousNetwork != "" {
		return cfg.RendezvousNetwork
	}
	if cfg.Transport == "tcp" {
		return "tcp"
	}
	return "unix"
}

// engineForRank builds the rank's CSV engine through the registry:
// a fresh instance per rank, and a sharded streaming loader is bound
// to the rank's communicator with all collectives deferred to the
// consumer goroutine — the producer must stay collective-free while
// the test read interleaves.
func (cfg *RunConfig) engineForRank(c *mpi.Comm, clock func() float64) (csvio.Reader, error) {
	name := cfg.Engine
	if name == "" {
		name = "naive"
	}
	r, err := csvio.ByName(name)
	if err != nil {
		return nil, err
	}
	if dl, ok := r.(*dataload.Loader); ok {
		dl.Comm = c
		dl.DeferExchange = true
		dl.CacheDir = cfg.CacheDir
		dl.Timeline = cfg.Timeline
		dl.Clock = clock
	}
	return r, nil
}

// FailureRecord documents one rank failure absorbed by the elastic
// recovery loop.
type FailureRecord struct {
	Rank      int    // rank that failed
	WorldSize int    // world size when it failed
	Op        string // operation the failure originated in
	Err       error  // the originating *mpi.RankFailedError
}

// RankResult is one worker's view of the run.
type RankResult struct {
	Rank          int
	Epochs        int
	LoadSeconds   float64
	TrainSeconds  float64
	EvalSeconds   float64
	TotalSeconds  float64
	FinalLoss     float64
	TrainAccuracy float64
	TestAccuracy  float64
	TestLoss      float64
	// WeightsChecksum summarizes the replica's final weights so tests
	// can verify synchronization across ranks.
	WeightsChecksum float64
	AllreduceCalls  int
	// ValLoss/ValAcc are the final cross-validation metrics (0 when
	// ValidationFrac is 0).
	ValLoss float64
	ValAcc  float64
	// ResumedFromEpoch is the checkpoint epoch training resumed from
	// (-1 when starting fresh).
	ResumedFromEpoch int
	// CheckpointsSaved counts snapshots rank 0 wrote.
	CheckpointsSaved int
	// FinalWeights is the rank's full final weight vector, recorded
	// only when RunConfig.KeepWeights is set.
	FinalWeights []float64
	// EpochEndSeconds[i] is the run clock when global epoch i finished;
	// EpochTestLoss/EpochTestAcc are the test-set metrics evaluated at
	// that moment. Recorded on rank 0 only, when
	// RunConfig.TrackEpochs is set.
	EpochEndSeconds []float64
	EpochTestLoss   []float64
	EpochTestAcc    []float64
}

// RunResult aggregates a real run.
type RunResult struct {
	Config RunConfig
	Ranks  []RankResult
	// Root is Ranks[0], the rank the paper's measurements observe.
	Root RankResult
	// Failures lists the rank failures elastic recovery absorbed, in
	// order; empty on a clean run.
	Failures []FailureRecord
	// Restarts counts elastic restarts (len(Failures)).
	Restarts int
	// FaultsFired records which scripted faults actually consumed, in
	// fire order and mpi.FaultPlan spec form ("kill@rank1/step4").
	// Empty when no plan was attached or nothing fired.
	FaultsFired []string
}

// Run executes the benchmark's three phases on cfg.Ranks in-process
// workers with real Horovod-style data-parallel training.
//
// With cfg.Elastic, a rank failure does not abort the run: the world
// is restarted without the failed rank, the model is restored from the
// latest checkpoint (when CheckpointDir is set), the learning rate is
// re-scaled to the surviving size (when ScaleLR is set), and training
// continues. The result reports the shrunken world plus the absorbed
// failures.
func (b *Benchmark) Run(cfg RunConfig) (*RunResult, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("candle: ranks must be positive, got %d", cfg.Ranks)
	}
	if cfg.TotalEpochs <= 0 {
		return nil, fmt.Errorf("candle: total epochs must be positive, got %d", cfg.TotalEpochs)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Rendezvous != "" {
		return b.runDistributed(cfg)
	}
	size := cfg.Ranks
	var failures []FailureRecord
	for {
		results, err := b.runAttempt(cfg, size, len(failures) > 0)
		if err == nil {
			return &RunResult{
				Config:      cfg,
				Ranks:       results,
				Root:        results[0],
				Failures:    failures,
				Restarts:    len(failures),
				FaultsFired: cfg.Faults.Fired(),
			}, nil
		}
		var rf *mpi.RankFailedError
		if !cfg.Elastic || !errors.As(err, &rf) {
			return nil, err
		}
		failures = append(failures, FailureRecord{
			Rank: rf.Rank, WorldSize: size, Op: rf.Op, Err: rf,
		})
		size--
		if size < 1 {
			return nil, fmt.Errorf("candle: elastic recovery exhausted all ranks: %w", err)
		}
	}
}

// runAttempt is one world's worth of Run: all three benchmark phases
// on `ranks` in-process workers. forceResume restores from the latest
// checkpoint regardless of cfg.Resume — the elastic restart path.
func (b *Benchmark) runAttempt(cfg RunConfig, ranks int, forceResume bool) ([]RankResult, error) {
	world := mpi.NewWorld(ranks)
	if cfg.Faults != nil {
		world.InjectFaults(cfg.Faults)
	}
	return b.runOnWorld(cfg, world, forceResume, true)
}

// runOnWorld runs the three benchmark phases on an already-built world
// — complete (the in-process path) or partial (one worker process of a
// distributed run). The schedule depends only on global quantities
// (world size, rank, seed), so the same config produces bit-identical
// weights whether the world lives in one process or several. It
// returns results for the locally hosted ranks, ascending.
// setWorkers=false leaves the tensor worker budget alone, for callers
// hosting several worlds in one process (RunMultiProc) that set a
// process-wide budget themselves.
func (b *Benchmark) runOnWorld(cfg RunConfig, world *mpi.World, forceResume, setWorkers bool) ([]RankResult, error) {
	ranks := world.Size()
	locals := world.LocalRanks()
	batch := cfg.Batch
	if batch <= 0 {
		batch = b.Cal.DefaultBatch
	}
	epochsPerRank := cfg.TotalEpochs
	if !cfg.WeakScaling {
		epochsPerRank = horovod.CompEpochsBalanced(cfg.TotalEpochs, ranks)
	}
	trainPath, testPath := b.Files(cfg.DataDir)

	// Each local rank is one goroutine driving tensor kernels; divide
	// the machine between them instead of letting R ranks each fan out
	// to GOMAXPROCS kernel goroutines — the oversubscription the paper
	// flags on shared nodes. The budget is global and restored on
	// return so nested or subsequent runs see the caller's setting.
	if setWorkers {
		prevWorkers := tensor.SetWorkers(max(1, runtime.GOMAXPROCS(0)/len(locals)))
		defer tensor.SetWorkers(prevWorkers)
	}

	results := make([]RankResult, ranks)
	var mu sync.Mutex
	runStart := time.Now()
	clock := func() float64 { return time.Since(runStart).Seconds() }
	err := world.Run(func(c *mpi.Comm) error {
		prof := trace.NewProfiler()
		totalStop := prof.Start("total")

		// Phase 1: data loading and preprocessing. The train read is
		// opened as a stream first, so its parse runs on a background
		// goroutine while this rank reads the test file; the stream is
		// then collected into the full matrix. For whole-file engines
		// the adapter gives the same overlap; for the sharded engine
		// the producer parses only this rank's byte range and the
		// cross-rank exchange runs here, on the rank goroutine, after
		// the test read — so every rank issues the same collective
		// sequence in the same order.
		loader, err := cfg.engineForRank(c, clock)
		if err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		loadBegin := clock()
		loadStop := prof.Start("data_loading")
		trainSrc, err := csvio.OpenStream(loader, trainPath)
		if err != nil {
			return fmt.Errorf("rank %d: loading train: %w", c.Rank(), err)
		}
		defer trainSrc.Close()
		rawTest, _, err := loader.Read(testPath)
		if err != nil {
			return fmt.Errorf("rank %d: loading test: %w", c.Rank(), err)
		}
		rawTrain, _, err := csvio.Collect(trainSrc)
		if err != nil {
			return fmt.Errorf("rank %d: loading train: %w", c.Rank(), err)
		}
		trX, trY, err := data.FromRawCSV(b.Spec, rawTrain)
		if err != nil {
			return fmt.Errorf("rank %d: preprocess train: %w", c.Rank(), err)
		}
		teX, teY, err := data.FromRawCSV(b.Spec, rawTest)
		if err != nil {
			return fmt.Errorf("rank %d: preprocess test: %w", c.Rank(), err)
		}
		var valX, valY *tensor.Matrix
		if cfg.ValidationFrac > 0 {
			if cfg.ValidationFrac >= 1 {
				return fmt.Errorf("rank %d: validation fraction %v must be < 1", c.Rank(), cfg.ValidationFrac)
			}
			cut := trX.Rows - int(float64(trX.Rows)*cfg.ValidationFrac)
			if cut < 1 || cut >= trX.Rows {
				return fmt.Errorf("rank %d: validation split leaves no data (cut %d of %d)", c.Rank(), cut, trX.Rows)
			}
			valX, valY = trX.RowSlice(cut, trX.Rows), trY.RowSlice(cut, trY.Rows)
			trX, trY = trX.RowSlice(0, cut), trY.RowSlice(0, cut)
		}
		loadStop()

		// Horovod setup: model per replica (rank-specific init so the
		// broadcast is doing real work), distributed optimizer, LR
		// scaling.
		if cfg.Timeline != nil {
			cfg.Timeline.Complete("data_loading", "io", 0, c.Rank(), loadBegin, clock()-loadBegin)
		}
		hvd := horovod.Init(c, horovod.Options{
			Timeline:    cfg.Timeline,
			FusionBytes: cfg.FusionBytes,
			Clock:       clock,
			Overlap:     cfg.Overlap,
			CycleTime:   cfg.CycleTime,
		})
		lr := cfg.LR
		if lr <= 0 {
			lr = lrOrDefault(b.Cal.LearningRate)
		}
		base := nn.NewOptimizer(b.Cal.Optimizer, lr)
		if cfg.ScaleLR {
			horovod.ScaleLearningRate(base, hvd.Size())
		}
		var dist *horovod.DistributedOptimizer
		var opt nn.Optimizer
		if cfg.ParameterServer {
			opt = hvd.ParameterServerOptimizer(base)
		} else {
			dist = hvd.DistributedOptimizer(base)
			opt = dist
			defer dist.Close()
		}
		model := b.Build(b.Spec)
		if cfg.DType != "" {
			dt, err := tensor.ParseDType(cfg.DType)
			if err != nil {
				return fmt.Errorf("rank %d: %w", c.Rank(), err)
			}
			if err := model.SetDType(dt); err != nil {
				return fmt.Errorf("rank %d: %w", c.Rank(), err)
			}
		}
		if err := model.Compile(b.Spec.Features, b.Loss, opt, cfg.Seed+int64(c.Rank())*7919); err != nil {
			return fmt.Errorf("rank %d: compile: %w", c.Rank(), err)
		}
		if cfg.Overlap && dist != nil {
			// Feed gradients to the overlap coordinator as Backward
			// produces them.
			model.SetGradSink(dist)
		}

		// Checkpoint/restart: restore the latest snapshot (all ranks
		// load the same file, so replicas start identical), then
		// snapshot from rank 0 on schedule.
		resumedFrom := -1
		resumedLoss := 0.0
		callbacks := []nn.Callback{hvd.BroadcastHook(0)}
		var tracker *epochTracker
		if cfg.TrackEpochs && c.Rank() == 0 {
			tracker = &epochTracker{clock: clock, model: model, teX: teX, teY: teY}
			callbacks = append(callbacks, tracker)
		}
		var ckptCB *checkpoint.Callback
		if cfg.CheckpointDir != "" {
			if cfg.Resume || forceResume {
				snap, err := checkpoint.Latest(cfg.CheckpointDir, b.Spec.Name)
				switch {
				case err == nil:
					if err := checkpoint.Restore(model, snap, b.Spec.Name); err != nil {
						return fmt.Errorf("rank %d: %w", c.Rank(), err)
					}
					resumedFrom = snap.Epoch
					resumedLoss = snap.Loss
				case errors.Is(err, checkpoint.ErrNoCheckpoint):
					// Fresh start.
				default:
					return fmt.Errorf("rank %d: %w", c.Rank(), err)
				}
			}
			ckptCB = checkpoint.NewCallback(cfg.CheckpointDir, b.Spec.Name, cfg.CheckpointEvery, c.Rank())
			callbacks = append(callbacks, ckptCB)
		}

		// With Continue, a restored checkpoint counts toward the epoch
		// budget: train only the remaining epochs, globally indexed so
		// the per-epoch RNG streams and checkpoint numbering line up
		// with the uninterrupted run. Without it, Resume keeps its
		// historical warm-start meaning: the full budget on top of the
		// restored weights.
		fitEpochs := epochsPerRank
		epochOffset := 0
		if cfg.Continue && resumedFrom >= 0 {
			epochOffset = resumedFrom + 1
			fitEpochs = epochsPerRank - epochOffset
		}

		// Phase 2: training and cross-validation.
		trainBegin := clock()
		trainStop := prof.Start("training")
		hist := &nn.History{}
		if fitEpochs > 0 {
			hist, err = model.Fit(trX, trY, nn.FitConfig{
				Epochs:      fitEpochs,
				BatchSize:   batch,
				Shuffle:     true,
				EpochOffset: epochOffset,
				Callbacks:   callbacks,
				ValX:        valX,
				ValY:        valY,
			})
			if err != nil {
				return fmt.Errorf("rank %d: fit: %w", c.Rank(), err)
			}
		}
		trainStop()
		if cfg.Timeline != nil {
			cfg.Timeline.Complete("training", "compute", 0, c.Rank(), trainBegin, clock()-trainBegin)
		}
		if ckptCB != nil && ckptCB.Err != nil {
			return fmt.Errorf("rank %d: checkpointing: %w", c.Rank(), ckptCB.Err)
		}

		// Phase 3: prediction and evaluation on test data.
		evalStop := prof.Start("evaluation")
		testLoss, testAcc := model.Evaluate(teX, teY)
		evalStop()
		totalStop()

		res := RankResult{
			Rank:             c.Rank(),
			Epochs:           fitEpochs,
			LoadSeconds:      prof.Total("data_loading"),
			TrainSeconds:     prof.Total("training"),
			EvalSeconds:      prof.Total("evaluation"),
			TotalSeconds:     prof.Total("total"),
			FinalLoss:        resumedLoss,
			TestAccuracy:     testAcc,
			TestLoss:         testLoss,
			WeightsChecksum:  checksum(model.WeightsVector()),
			ResumedFromEpoch: resumedFrom,
		}
		// A Continue-resume that found the budget already met trains no
		// epochs; its "final" loss is the checkpoint's.
		if len(hist.Loss) > 0 {
			res.FinalLoss = hist.Loss[len(hist.Loss)-1]
			res.TrainAccuracy = hist.Acc
		}
		if len(hist.ValLoss) > 0 {
			res.ValLoss = hist.ValLoss[len(hist.ValLoss)-1]
			res.ValAcc = hist.ValAcc[len(hist.ValAcc)-1]
		}
		if cfg.KeepWeights {
			res.FinalWeights = model.WeightsVector()
		}
		if tracker != nil {
			res.EpochEndSeconds = tracker.times
			res.EpochTestLoss = tracker.losses
			res.EpochTestAcc = tracker.accs
		}
		if dist != nil {
			res.AllreduceCalls = dist.AllreduceCalls
		}
		if ckptCB != nil {
			res.CheckpointsSaved = ckptCB.Saves
		}
		mu.Lock()
		results[c.Rank()] = res
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]RankResult, 0, len(locals))
	for _, r := range locals {
		out = append(out, results[r])
	}
	return out, nil
}

// epochTracker is the RunConfig.TrackEpochs callback: at each epoch
// end it stamps the run clock, then evaluates the model on the test
// split. The clock is read before the evaluation, so an epoch's
// time-to-accuracy excludes its own probe (earlier epochs' probes are
// part of the measured wall time, like any monitor's overhead).
type epochTracker struct {
	nn.BaseCallback
	clock    func() float64
	model    *nn.Sequential
	teX, teY *tensor.Matrix
	times    []float64
	losses   []float64
	accs     []float64
}

func (e *epochTracker) OnEpochEnd(m *nn.Sequential, epoch int, loss float64) {
	t := e.clock()
	l, a := e.model.Evaluate(e.teX, e.teY)
	e.times = append(e.times, t)
	e.losses = append(e.losses, l)
	e.accs = append(e.accs, a)
}

func lrOrDefault(lr float64) float64 {
	if lr <= 0 {
		return 0.001 // P1B1 has "none" in Table 1; Keras adam default
	}
	return lr
}

// checksum is an order-sensitive digest of a weight vector.
func checksum(w []float64) float64 {
	s := 0.0
	for i, v := range w {
		s += v * float64(i%97+1)
	}
	return s
}

// CompareLoaders runs phase 1 only (load + preprocess) with every
// registered CSV engine against the benchmark's generated files and
// returns seconds by engine name — the real-mode analogue of Tables 3
// and 4. The sharded engine runs single-process here (no world), so
// its cold number is comparable to the whole-file engines; on a
// repeat call its binary cache is warm.
func (b *Benchmark) CompareLoaders(dir string) (map[string]float64, error) {
	trainPath, _ := b.Files(dir)
	names := csvio.Engines()
	out := make(map[string]float64, len(names))
	for _, name := range names {
		r, err := csvio.ByName(name)
		if err != nil {
			return nil, err
		}
		_, stats, err := r.Read(trainPath)
		if err != nil {
			return nil, fmt.Errorf("candle: %s: %w", r.Name(), err)
		}
		out[r.Name()] = stats.Seconds
	}
	return out, nil
}
