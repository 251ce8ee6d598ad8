package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"ovs/internal/autodiff"
	"ovs/internal/nn"
	"ovs/internal/parallel"
	"ovs/internal/tensor"
)

// ErrDiverged is returned by every training stage when an epoch ends with a
// non-finite loss, gradient norm or parameter. The check runs before the
// epoch's checkpoint hook, so a diverged run never writes its poisoned
// weights to disk: the newest checkpoint stays the last finite one. The
// returned error wraps ErrDiverged with the stage and the 1-based epoch.
var ErrDiverged = errors.New("core: training diverged")

// stageHook is called after every completed epoch of a resumable training
// stage with the number of epochs done so far, the loss history, and the live
// optimizer. Returning an error aborts the stage; the error (typically
// ErrInterrupted) propagates to the caller with the partial history.
type stageHook func(done int, hist []float64, opt *nn.Adam) error

// TrainV2SCtx runs stage 1 of the Fig. 8 pipeline: fit the Volume-Speed
// mapping on generated (volume, speed) pairs. It returns the per-epoch mean
// loss curve.
//
// ctx is observed only at epoch boundaries, so the epochs completed before a
// cancelled return are bitwise-identical to an uncancelled run's prefix. A
// cancelled call returns the partial history with the context's cancellation
// cause.
func (m *Model) TrainV2SCtx(ctx context.Context, samples []Sample, epochs int) ([]float64, error) {
	return m.trainV2S(ctx, samples, epochs, 0, nil, nn.NewAdam(m.Cfg.LR), nil)
}

// trainV2S is the resumable core of TrainV2SCtx: it continues from start
// completed epochs with the given optimizer and accumulated history, closing
// each epoch with endEpoch.
func (m *Model) trainV2S(ctx context.Context, samples []Sample, epochs, start int, hist []float64, opt *nn.Adam, hook stageHook) ([]float64, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: V2S training requires samples")
	}
	params := m.V2S.Params()
	history := hist
	// One recycled graph serves every sample of every epoch: Reset rewinds
	// the tape's regions before each forward pass.
	g := autodiff.NewGraph()
	defer g.Release()
	for e := start; e < epochs; e++ {
		total, gradNorm := 0.0, 0.0
		for _, s := range samples {
			g.Reset()
			pred := m.V2S.MapSpeed(g, g.Const(s.Volume), true)
			loss := autodiff.MSE(pred, s.Speed)
			total += loss.Value.Data[0]
			g.Backward(loss)
			gradNorm = math.Max(gradNorm, m.clipGrads(params))
			opt.Step(params)
			nn.ZeroGrads(params)
		}
		history = append(history, total/float64(len(samples)))
		if err := endEpoch(ctx, StageV2S, e+1, history, gradNorm, params, opt, hook); err != nil {
			return history, err
		}
	}
	return history, nil
}

// TrainT2VCtx runs stage 2: freeze Volume-Speed, fit TOD-Volume by passing
// generated TOD through both mappings and comparing against the generated
// speed (plus optional direct volume supervision weighted by
// Cfg.VolumeLossWeight; the paper's protocol corresponds to weight 0).
// Cancellation is observed at epoch boundaries (see TrainV2SCtx).
func (m *Model) TrainT2VCtx(ctx context.Context, samples []Sample, epochs int) ([]float64, error) {
	return m.trainT2V(ctx, samples, epochs, 0, nil, nn.NewAdam(m.Cfg.LR), nil)
}

// trainT2V is the resumable core of TrainT2VCtx (see trainV2S).
func (m *Model) trainT2V(ctx context.Context, samples []Sample, epochs, start int, hist []float64, opt *nn.Adam, hook stageHook) ([]float64, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: T2V training requires samples")
	}
	// Volume-Speed is frozen for the whole stage: its parameters are read
	// concurrently by parallel graph construction and must not accumulate
	// gradients.
	restore := freezeParams(m.V2S.Params())
	defer restore()
	params := m.T2V.Params()
	history := hist
	volNorm := 1.0 / m.Cfg.VolumeNorm
	g := autodiff.NewGraph()
	defer g.Release()
	for e := start; e < epochs; e++ {
		total, gradNorm := 0.0, 0.0
		for _, s := range samples {
			g.Reset()
			vol := m.T2V.MapVolume(g, g.Const(s.G), true)
			// Volume-Speed runs in frozen inference mode: its parameters are
			// simply absent from the optimized set.
			speed := m.V2S.MapSpeed(g, vol, false)
			loss := autodiff.MSE(speed, s.Speed)
			if m.Cfg.VolumeLossWeight > 0 {
				volLoss := autodiff.MSE(autodiff.Scale(vol, volNorm), tensor.ScaleTo(g.AllocLike(s.Volume), s.Volume, volNorm))
				loss = autodiff.Add(loss, autodiff.Scale(volLoss, m.Cfg.VolumeLossWeight))
			}
			total += loss.Value.Data[0]
			g.Backward(loss)
			gradNorm = math.Max(gradNorm, m.clipGrads(params))
			opt.Step(params)
			nn.ZeroGrads(params)
		}
		history = append(history, total/float64(len(samples)))
		if err := endEpoch(ctx, StageT2V, e+1, history, gradNorm, params, opt, hook); err != nil {
			return history, err
		}
	}
	return history, nil
}

// AuxData bundles the auxiliary observations of §IV-E / Table II. Nil
// slices/tensors disable the corresponding term. Weights are the w_g, w_q
// of Eq. 13.
type AuxData struct {
	// CensusSum[i] is the LEHD-like horizon-total trip count of OD i.
	CensusSum    []float64
	CensusWeight float64

	// CameraLinks and CameraVolume give observed volumes on a sparse set of
	// links; CameraVolume is (len(CameraLinks) × T).
	CameraLinks  []int
	CameraVolume *tensor.Tensor
	CameraWeight float64

	// TrajODIdx and TrajG give fleet-scaled TOD observations on a sparse set
	// of OD pairs; TrajG is (len(TrajODIdx) × T).
	TrajODIdx  []int
	TrajG      *tensor.Tensor
	TrajWeight float64

	// LinkWeights, when non-nil (length M), weights each link's contribution
	// to the main speed loss. Setting a link to 0 excludes it — the RQ3
	// mechanism for links whose physics changed after training (road work):
	// such links are detectable from data because their maximum observed
	// speed sits far below the speed limit even in empty intervals.
	LinkWeights []float64
}

// fitGenFrom optimizes one TOD generator against the observation, resuming
// from start completed epochs (see trainV2S). The frozen TOD-Volume and
// Volume-Speed modules are only read, so calls on distinct generators may run
// concurrently (FitBestCtx restarts); callers must freeze those modules'
// parameters first.
func (m *Model) fitGenFrom(ctx context.Context, gen TODGenModule, speedObs *tensor.Tensor, epochs, start int, hist []float64, opt *nn.Adam, aux *AuxData, hook stageHook) ([]float64, error) {
	if speedObs.Rank() != 2 || speedObs.Dim(0) != m.Topo.M || speedObs.Dim(1) != m.Topo.T {
		return nil, fmt.Errorf("core: Fit observation shape %v, want [%d %d]", speedObs.Shape(), m.Topo.M, m.Topo.T)
	}
	params := gen.Params()
	history := hist
	g := autodiff.NewGraph()
	defer g.Release()
	for e := start; e < epochs; e++ {
		g.Reset()
		tod := gen.Generate(g)
		vol := m.T2V.MapVolume(g, tod, false)
		speed := m.V2S.MapSpeed(g, vol, false)
		var linkWeights []float64
		if aux != nil {
			linkWeights = aux.LinkWeights
		}
		loss := m.fitLoss(g, speed, speedObs, linkWeights)
		if m.Cfg.SmoothWeight > 0 {
			loss = autodiff.Add(loss, autodiff.Scale(m.smoothPenalty(g, tod), m.Cfg.SmoothWeight))
		}
		if aux != nil {
			loss = autodiff.Add(loss, m.auxLoss(g, tod, vol, aux))
		}
		history = append(history, loss.Value.Data[0])
		g.Backward(loss)
		gradNorm := m.clipGrads(params)
		opt.Step(params)
		nn.ZeroGrads(params)
		if err := endEpoch(ctx, StageFit, e+1, history, gradNorm, params, opt, hook); err != nil {
			return history, err
		}
	}
	return history, nil
}

// clipGrads applies Cfg.GradClip and returns the step's pre-clip gradient
// norm. With clipping off the norm is still measured, for endEpoch's
// divergence check; an infinite bound never scales.
func (m *Model) clipGrads(params []*autodiff.Parameter) float64 {
	bound := m.Cfg.GradClip
	if bound <= 0 {
		bound = math.Inf(1)
	}
	return nn.ClipGrads(params, bound)
}

// endEpoch closes completed epoch done of a training stage, whose mean loss
// is the last entry of hist and whose largest step gradient norm is
// gradNorm (math.Max keeps a NaN). A non-finite loss, gradient norm or
// trained parameter fails the stage with ErrDiverged before the hook can
// checkpoint the poisoned weights. The parameters are checked too because
// an optimizer step can overflow them while the loss and gradient that
// drove it are still finite.
//
// A checkpointing hook owns the interrupt decision: it observes ctx itself
// and turns cancellation into a durable checkpoint plus ErrInterrupted, so
// ctx is read exactly once per epoch and a cancelled checkpointed stage
// always exits with its final checkpoint written. Without a hook a cancelled
// stage returns the context's cancellation cause.
func endEpoch(ctx context.Context, stage string, done int, hist []float64, gradNorm float64, params []*autodiff.Parameter, opt *nn.Adam, hook stageHook) error {
	if loss := hist[len(hist)-1]; !isFinite(loss) || !isFinite(gradNorm) {
		return fmt.Errorf("%w: stage %s, epoch %d: loss %v, gradient norm %v", ErrDiverged, stage, done, loss, gradNorm)
	}
	for _, p := range params {
		for _, v := range p.Value.Data {
			if !isFinite(v) {
				return fmt.Errorf("%w: stage %s, epoch %d: parameter %s is not finite", ErrDiverged, stage, done, p.Name)
			}
		}
	}
	if hook != nil {
		return hook(done, hist, opt)
	}
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return nil
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// freezeParams freezes every parameter that is not already frozen and
// returns a closure restoring the previous state. Nested freezes compose:
// the inner restore only unfreezes what the inner call froze.
func freezeParams(ps []*autodiff.Parameter) (restore func()) {
	var frozen []*autodiff.Parameter
	for _, p := range ps {
		if !p.Frozen() {
			p.SetFrozen(true)
			frozen = append(frozen, p)
		}
	}
	return func() {
		for _, p := range frozen {
			p.SetFrozen(false)
		}
	}
}

// fitLoss is the main observation term of the test-time fit: plain MSE by
// default, or a pseudo-Huber loss — δ²(√(1+(r/δ)²) − 1) — when RobustDelta
// is set, which bounds the influence of links whose physics changed after
// training (RQ3).
func (m *Model) fitLoss(g *autodiff.Graph, speed *autodiff.Node, speedObs *tensor.Tensor, linkWeights []float64) *autodiff.Node {
	var weights *tensor.Tensor
	if linkWeights != nil {
		if len(linkWeights) != m.Topo.M {
			panic(fmt.Sprintf("core: %d link weights for %d links", len(linkWeights), m.Topo.M))
		}
		weights = g.Alloc(m.Topo.M, m.Topo.T)
		for j, w := range linkWeights {
			for t := 0; t < m.Topo.T; t++ {
				weights.Set(w, j, t)
			}
		}
	}
	delta := m.Cfg.RobustDelta
	diff := autodiff.Sub(speed, g.Const(speedObs))
	var cell *autodiff.Node
	if delta <= 0 {
		cell = autodiff.Mul(diff, diff)
	} else {
		scaled := autodiff.Scale(diff, 1/delta)
		inner := autodiff.AddScalar(autodiff.Mul(scaled, scaled), 1)
		cell = autodiff.Scale(autodiff.AddScalar(autodiff.Sqrt(inner), -1), delta*delta)
	}
	if weights != nil {
		cell = autodiff.Mul(cell, g.Const(weights))
	}
	return autodiff.Mean(cell)
}

// smoothPenalty returns the mean squared successive-interval difference of
// the TOD tensor in MaxTrips-normalized units.
func (m *Model) smoothPenalty(g *autodiff.Graph, tod *autodiff.Node) *autodiff.Node {
	t := m.Topo.T
	if t < 2 {
		return g.Const(g.Alloc(1))
	}
	// Difference matrix D (T × T-1): (tod·D)[i,k] = tod[i,k+1] - tod[i,k].
	d := g.Alloc(t, t-1)
	for k := 0; k < t-1; k++ {
		d.Set(-1, k, k)
		d.Set(1, k+1, k)
	}
	diff := autodiff.MatMul(autodiff.Scale(tod, 1/m.Cfg.MaxTrips), g.Const(d))
	return autodiff.Mean(autodiff.Mul(diff, diff))
}

// auxLoss assembles the auxiliary terms of Eq. 13 on the current graph.
func (m *Model) auxLoss(g *autodiff.Graph, tod, vol *autodiff.Node, aux *AuxData) *autodiff.Node {
	zero := g.Const(g.Alloc(1))
	total := zero

	// Census (TOD level, static): || Σ_t g_i - census_i ||² per OD,
	// normalized by MaxTrips² so weights are unit-comparable.
	if len(aux.CensusSum) > 0 && aux.CensusWeight > 0 {
		if len(aux.CensusSum) != m.Topo.N {
			panic(fmt.Sprintf("core: census length %d != N=%d", len(aux.CensusSum), m.Topo.N))
		}
		// Row sums of the TOD node: tod · 1_T.
		onesT := g.Alloc(m.Topo.T, 1)
		onesT.Fill(1)
		sums := autodiff.MatMul(tod, g.Const(onesT)) // (N × 1)
		norm := 1.0 / (m.Cfg.MaxTrips * float64(m.Topo.T))
		target := g.Alloc(m.Topo.N, 1)
		for i, c := range aux.CensusSum {
			target.Data[i] = c * norm
		}
		diff := autodiff.Sub(autodiff.Scale(sums, norm), g.Const(target))
		total = autodiff.Add(total, autodiff.Scale(autodiff.Mean(autodiff.Mul(diff, diff)), aux.CensusWeight))
	}

	// Cameras (volume level, dynamic): MSE on observed link rows.
	if len(aux.CameraLinks) > 0 && aux.CameraWeight > 0 {
		rows := make([]*autodiff.Node, len(aux.CameraLinks))
		for r, j := range aux.CameraLinks {
			rows[r] = autodiff.Row(vol, j)
		}
		pred := autodiff.Scale(autodiff.StackRows(rows), 1/m.Cfg.VolumeNorm)
		obs := tensor.ScaleTo(g.AllocLike(aux.CameraVolume), aux.CameraVolume, 1/m.Cfg.VolumeNorm)
		total = autodiff.Add(total, autodiff.Scale(autodiff.MSE(pred, obs), aux.CameraWeight))
	}

	// Trajectories (TOD level, dynamic): MSE on observed OD rows.
	if len(aux.TrajODIdx) > 0 && aux.TrajWeight > 0 {
		rows := make([]*autodiff.Node, len(aux.TrajODIdx))
		for r, i := range aux.TrajODIdx {
			rows[r] = autodiff.Row(tod, i)
		}
		pred := autodiff.Scale(autodiff.StackRows(rows), 1/m.Cfg.MaxTrips)
		obs := tensor.ScaleTo(g.AllocLike(aux.TrajG), aux.TrajG, 1/m.Cfg.MaxTrips)
		total = autodiff.Add(total, autodiff.Scale(autodiff.MSE(pred, obs), aux.TrajWeight))
	}
	return total
}

// speedScore re-evaluates the pure speed-observation loss of a fitted
// generator on a fresh graph — no smoothness or auxiliary terms. FitBestCtx
// compares restarts on this score: the final training loss mixes the
// regularizers and is a single noisy last-epoch value, so it can prefer a
// restart whose actual speed match is worse.
func (m *Model) speedScore(gen TODGenModule, speedObs *tensor.Tensor, aux *AuxData) float64 {
	g := autodiff.NewGraph()
	defer g.Release()
	tod := gen.Generate(g)
	vol := m.T2V.MapVolume(g, tod, false)
	speed := m.V2S.MapSpeed(g, vol, false)
	var linkWeights []float64
	if aux != nil {
		linkWeights = aux.LinkWeights
	}
	return m.fitLoss(g, speed, speedObs, linkWeights).Value.Data[0]
}

// FitBestCtx runs the test stage: freeze TOD-Volume and Volume-Speed and
// optimize the TOD generator so the end-to-end speed matches the observation
// (Eq. 12), plus any auxiliary losses (Eq. 13). It returns the recovered TOD
// tensor and the loss history; an observation that is not M × T is an
// error.
//
// With restarts > 1 the fit runs from `restarts` independent TOD-generator
// starts and keeps the best recovery. Each restart begins from the
// generator's entry state with freshly drawn Gaussian seeds — the seeds for
// all restarts are drawn serially from a single root-derived rng, so the
// start set is identical at any worker count — and the restarts run
// concurrently on clones of the generator (bounded by Cfg.Workers).
//
// The winner is the restart with the lowest re-evaluated pure speed loss
// (see speedScore), ties broken by the lowest restart index. Its generator
// state is installed into m.TODGen before returning, so m.GenerateTOD() and
// Model.Save afterwards agree exactly with the returned tensor.
//
// Cancellation is observed at restart and epoch boundaries (see
// TrainV2SCtx): once ctx is cancelled no new restart starts, in-flight
// restarts abort at their next epoch boundary, and the call returns the
// context's cancellation cause with the generator's entry state intact.
func (m *Model) FitBestCtx(ctx context.Context, speedObs *tensor.Tensor, epochs, restarts int, aux *AuxData) (*tensor.Tensor, []float64, error) {
	return m.fitBest(ctx, speedObs, epochs, restarts, aux, nil)
}

// restartRecord is one completed restart's outcome: the generator's final
// state tensors and the restart's loss history.
type restartRecord struct {
	state []*tensor.Tensor
	hist  []float64
}

// restartCtl lets a checkpointing caller observe and steer a multi-restart
// fit. Restarts listed in restored skip fitting and reuse the recorded
// outcome; onDone reports each freshly completed restart (called from worker
// goroutines — implementations synchronize internally). Both fields are
// optional.
type restartCtl struct {
	restored map[int]restartRecord
	onDone   func(r int, state []*tensor.Tensor, hist []float64) error
}

// fitBest is the controllable core of FitBestCtx. With a nil ctl it behaves
// exactly like the public method; a checkpointing caller passes a ctl to
// restore completed restarts and record new ones. A single start fits
// m.TODGen in place. Cancellation of a multi-restart fit is
// restart-granular: a restart cut short is discarded — resume refits it from
// its entry state — and the model keeps its entry state. With a ctl the
// cancellation surfaces as ErrInterrupted (the checkpointed, resumable
// form), without one as the context's cancellation cause.
func (m *Model) fitBest(ctx context.Context, speedObs *tensor.Tensor, epochs, restarts int, aux *AuxData, ctl *restartCtl) (*tensor.Tensor, []float64, error) {
	restore := freezeParams(append(m.T2V.Params(), m.V2S.Params()...))
	defer restore()
	if restarts <= 1 {
		hist, err := m.fitGenFrom(ctx, m.TODGen, speedObs, epochs, 0, nil, nn.NewAdam(m.Cfg.LR), aux, nil)
		if err != nil {
			return nil, nil, err
		}
		return m.GenerateTOD(), hist, nil
	}

	// Every restart fits its own deep copy; the shared T2V/V2S modules are
	// frozen, hence read-only and race-free. The reseeds for all restarts are
	// drawn serially here, so the start set — and any checkpointed subset of
	// it — is identical at any worker count.
	rng := rand.New(rand.NewSource(m.Cfg.Seed + 997))
	gens := make([]TODGenModule, restarts)
	for r := range gens {
		gens[r] = m.TODGen.CloneTODGen()
		if r > 0 {
			gens[r].Reseed(rng)
		}
	}
	hists := make([][]float64, restarts)
	errs := make([]error, restarts)
	skipped := make([]bool, restarts)
	fns := make([]func(), restarts)
	for r := range fns {
		r := r
		fns[r] = func() {
			if rec, ok := restoredOf(ctl, r); ok {
				copyStateTensors(gens[r].StateTensors(), rec.state)
				hists[r] = rec.hist
				return
			}
			if ctx.Err() != nil {
				skipped[r] = true
				return
			}
			hists[r], errs[r] = m.fitGenFrom(ctx, gens[r], speedObs, epochs, 0, nil, nn.NewAdam(m.Cfg.LR), aux, nil)
			if errs[r] != nil {
				if ctx.Err() != nil {
					skipped[r], errs[r] = true, nil
				}
				return
			}
			if ctl != nil && ctl.onDone != nil {
				errs[r] = ctl.onDone(r, gens[r].StateTensors(), hists[r])
			}
		}
	}
	// RunCtx stops launching restarts once ctx is cancelled; restarts the
	// pool never started are equivalent to skipped ones below.
	runErr := parallel.RunCtx(ctx, m.Cfg.Workers, fns...)
	interrupted := runErr != nil
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	for _, s := range skipped {
		if s {
			interrupted = true
		}
	}
	if interrupted {
		if ctl != nil {
			// Checkpointed caller: surface the resumable sentinel — the
			// completed restarts are already on disk via ctl.onDone.
			return nil, nil, ErrInterrupted
		}
		return nil, nil, context.Cause(ctx)
	}
	best, bestScore := -1, math.Inf(1)
	for r := range gens {
		if score := m.speedScore(gens[r], speedObs, aux); best < 0 || score < bestScore {
			best, bestScore = r, score
		}
	}
	copyStateTensors(m.TODGen.StateTensors(), gens[best].StateTensors())
	return m.GenerateTOD(), hists[best], nil
}

// restoredOf looks up a restored restart record on an optional ctl.
func restoredOf(ctl *restartCtl, r int) (restartRecord, bool) {
	if ctl == nil {
		return restartRecord{}, false
	}
	rec, ok := ctl.restored[r]
	return rec, ok
}

// cloneTensors deep-copies a state-tensor list.
func cloneTensors(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

// copyStateTensors copies src's contents into dst element-wise. The lists
// must come from StateTensors of generators of the same concrete type.
func copyStateTensors(dst, src []*tensor.Tensor) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("core: state tensor count mismatch %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		// CopyDataFrom, not a bare copy: dst may be a live weight whose
		// packed panels are cached, and the overwrite must invalidate them.
		dst[i].CopyDataFrom(src[i])
	}
}

// TrainFullCtx runs the complete Fig. 8 pipeline: stage-1 Volume-Speed
// training, stage-2 TOD-Volume training, then the test-time fit against the
// observed speed (with optional restarts). It returns the recovered TOD.
// Each stage observes ctx at its epoch (or restart) boundaries, and a
// cancelled call returns the context's cancellation cause.
func (m *Model) TrainFullCtx(ctx context.Context, samples []Sample, speedObs *tensor.Tensor, v2sEpochs, t2vEpochs, fitEpochs int, aux *AuxData) (*tensor.Tensor, error) {
	if _, err := m.TrainV2SCtx(ctx, samples, v2sEpochs); err != nil {
		return nil, err
	}
	if _, err := m.TrainT2VCtx(ctx, samples, t2vEpochs); err != nil {
		return nil, err
	}
	tod, _, err := m.FitBestCtx(ctx, speedObs, fitEpochs, m.Cfg.FitRestarts, aux)
	return tod, err
}
