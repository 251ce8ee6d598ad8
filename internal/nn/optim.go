package nn

import (
	"fmt"
	"math"

	"ovs/internal/autodiff"
	"ovs/internal/tensor"
)

// OptimizerState is the serializable snapshot of Adam's slot-slice state:
// the step counter, the hyperparameters, and the per-parameter moment
// tensors keyed by parameter name. A checkpointed training run restored with
// ImportState continues bitwise-identically to one that never stopped.
type OptimizerState struct {
	Kind  string      `json:"kind"` // always "adam"
	Step  int         `json:"step,omitempty"`
	LR    float64     `json:"lr"`
	Beta1 float64     `json:"beta1,omitempty"`
	Beta2 float64     `json:"beta2,omitempty"`
	Eps   float64     `json:"eps,omitempty"`
	Slots []SlotState `json:"slots,omitempty"`
}

// SlotState is one parameter's optimizer slot: M and V are Adam's first and
// second moments.
type SlotState struct {
	Name string    `json:"name"`
	M    []float64 `json:"m,omitempty"`
	V    []float64 `json:"v,omitempty"`
}

// slotIndex maps parameter names to positions, erroring on duplicates so a
// corrupt checkpoint cannot silently bind two slots to one parameter.
func slotIndex(params []*autodiff.Parameter) (map[string]int, error) {
	idx := make(map[string]int, len(params))
	for i, p := range params {
		if _, dup := idx[p.Name]; dup {
			return nil, fmt.Errorf("nn: duplicate parameter name %q", p.Name)
		}
		idx[p.Name] = i
	}
	return idx, nil
}

// validateSlots checks every slot against the parameter index before any
// import mutates optimizer state.
func validateSlots(slots []SlotState, params []*autodiff.Parameter, idx map[string]int) error {
	seen := make(map[string]bool, len(slots))
	for _, s := range slots {
		if seen[s.Name] {
			return fmt.Errorf("nn: adam state holds duplicate slot %q", s.Name)
		}
		seen[s.Name] = true
		i, ok := idx[s.Name]
		if !ok {
			return fmt.Errorf("nn: adam state holds slot for unknown parameter %q", s.Name)
		}
		n := len(params[i].Value.Data)
		if len(s.M) != n {
			return fmt.Errorf("nn: adam slot %q has %d values, parameter has %d", s.Name, len(s.M), n)
		}
		if len(s.V) != n {
			return fmt.Errorf("nn: adam slot %q second moment has %d values, parameter has %d", s.Name, len(s.V), n)
		}
	}
	return nil
}

// ZeroGrads clears the gradients of all given parameters.
func ZeroGrads(params []*autodiff.Parameter) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// ClipGrads scales gradients so their global L2 norm does not exceed max.
// It returns the pre-clip norm. Gradient clipping keeps the test-time
// TOD-generator fitting stable when the speed loss surface is steep.
// Frozen parameters take no part: they receive no gradient, contribute
// nothing to the norm, and are never scaled.
func ClipGrads(params []*autodiff.Parameter, max float64) float64 {
	total := 0.0
	for _, p := range params {
		if p.Frozen() {
			continue
		}
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > max && norm > 0 {
		s := max / norm
		for _, p := range params {
			if p.Frozen() {
				continue
			}
			for i := range p.Grad.Data {
				p.Grad.Data[i] *= s
			}
		}
	}
	return norm
}

// sameParams reports whether the cached slot list still matches the
// parameter list passed to Step, pointer for pointer.
func sameParams(cached, params []*autodiff.Parameter) bool {
	if len(cached) != len(params) {
		return false
	}
	for i := range cached {
		if cached[i] != params[i] {
			return false
		}
	}
	return true
}

// Adam implements the Adam optimizer (Kingma & Ba). The paper trains with
// learning rate 0.001 (Table V), Adam's default. Moment state lives in slot
// slices parallel to the parameter list (slot indexing, resolved on the first
// Step), not in per-parameter maps, so the per-step cost is a plain slice
// walk; the per-element update is the fused tensor.AdamStepInPlace kernel.
// Frozen parameters are skipped entirely: no update, no moment decay. Step
// leaves gradients intact; callers follow it with ZeroGrads.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	step   int
	params []*autodiff.Parameter
	m, v   []*tensor.Tensor
}

// NewAdam constructs an Adam optimizer with standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// rebind aligns the moment slots with a new parameter list, carrying over
// the state of parameters present in the old list.
func (a *Adam) rebind(params []*autodiff.Parameter) {
	type moments struct{ m, v *tensor.Tensor }
	old := make(map[*autodiff.Parameter]moments, len(a.params))
	for i, p := range a.params {
		old[p] = moments{a.m[i], a.v[i]}
	}
	a.params = append([]*autodiff.Parameter(nil), params...)
	a.m = make([]*tensor.Tensor, len(params))
	a.v = make([]*tensor.Tensor, len(params))
	for i, p := range params {
		if st, ok := old[p]; ok {
			a.m[i] = st.m
			a.v[i] = st.v
		}
	}
}

// Step applies one Adam update.
func (a *Adam) Step(params []*autodiff.Parameter) {
	if !sameParams(a.params, params) {
		a.rebind(params)
	}
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range params {
		if p.Frozen() {
			continue
		}
		m := a.m[i]
		if m == nil {
			m = tensor.New(p.Value.Shape()...)
			a.m[i] = m
			a.v[i] = tensor.New(p.Value.Shape()...)
		}
		tensor.AdamStepInPlace(p.Value, p.Grad, m, a.v[i], a.LR, a.Beta1, a.Beta2, a.Eps, bc1, bc2)
	}
}

// ExportState snapshots the step counter and moment slots keyed by parameter
// name. Slot data is copied, so the snapshot is stable while training
// continues.
func (a *Adam) ExportState() OptimizerState {
	st := OptimizerState{Kind: "adam", Step: a.step, LR: a.LR, Beta1: a.Beta1, Beta2: a.Beta2, Eps: a.Eps}
	for i, p := range a.params {
		if a.m[i] == nil {
			continue
		}
		st.Slots = append(st.Slots, SlotState{
			Name: p.Name,
			M:    append([]float64(nil), a.m[i].Data...),
			V:    append([]float64(nil), a.v[i].Data...),
		})
	}
	return st
}

// ImportState restores a snapshot produced by ExportState, rebinding the
// moment slots to params. The step counter is restored too, so bias
// correction continues exactly where the exported run left off. Every stored
// slot must name a parameter in params with a matching element count;
// validation happens before any state is applied.
func (a *Adam) ImportState(st OptimizerState, params []*autodiff.Parameter) error {
	if st.Kind != "adam" {
		return fmt.Errorf("nn: Adam cannot import %q state", st.Kind)
	}
	idx, err := slotIndex(params)
	if err != nil {
		return err
	}
	if err := validateSlots(st.Slots, params, idx); err != nil {
		return err
	}
	a.LR, a.Beta1, a.Beta2, a.Eps = st.LR, st.Beta1, st.Beta2, st.Eps
	a.step = st.Step
	a.params = append([]*autodiff.Parameter(nil), params...)
	a.m = make([]*tensor.Tensor, len(params))
	a.v = make([]*tensor.Tensor, len(params))
	for _, slot := range st.Slots {
		i := idx[slot.Name]
		m := tensor.New(params[i].Value.Shape()...)
		copy(m.Data, slot.M)
		v := tensor.New(params[i].Value.Shape()...)
		copy(v.Data, slot.V)
		a.m[i], a.v[i] = m, v
	}
	return nil
}
