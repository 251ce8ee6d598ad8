// Package ovs is the public facade of this repository: a from-scratch Go
// implementation of "Rebuilding City-Wide Traffic Origin Destination from
// Road Speed Data" (ICDE 2021) together with every substrate the paper's
// evaluation needs — a traffic simulator, a neural-network stack, road
// networks and synthetic datasets, six baselines, and the full experiment
// harness.
//
// The aliases below expose the stable, documented surface of the library.
// Downstream users compose them as:
//
//	ctx := context.Background()
//	city := ovs.SyntheticGrid(8, 1)
//	simulator := ovs.NewSimulator(city.Net, ovs.SimConfig{Intervals: 8, IntervalSec: 300})
//	...                                  // generate samples, observe speed
//	topo, _ := ovs.NewTopology(city.Net, pairs, 8, 1)
//	model := ovs.NewModel(topo, ovs.DefaultModelConfig())
//	recovered, _ := model.TrainFullCtx(ctx, samples, speedObs, 30, 25, 200, nil)
//
// See examples/ for runnable end-to-end programs and internal/experiment for
// the table/figure reproduction harness behind cmd/ovstables.
package ovs

import (
	"ovs/internal/core"
	"ovs/internal/dataset"
	"ovs/internal/fd"
	"ovs/internal/metrics"
	"ovs/internal/parallel"
	"ovs/internal/roadnet"
	"ovs/internal/sim"
	"ovs/internal/tensor"
	"ovs/internal/trafficio"
)

// ---- Tensors ----

// Tensor is a dense row-major float64 tensor.
type Tensor = tensor.Tensor

// NewTensor allocates a zero tensor; FromSlice wraps existing data.
var (
	NewTensor  = tensor.New
	FromSlice  = tensor.FromSlice
	TensorRMSE = metrics.RMSE
)

// ---- Road networks ----

// Network is a directed road graph; Route a link path; Region a city
// partition cell; ODPair an ordered (origin, destination) region pair.
type (
	Network = roadnet.Network
	Route   = roadnet.Route
	Region  = roadnet.Region
	ODPair  = roadnet.ODPair
)

// Network constructors and routing helpers.
var (
	NewNetwork           = roadnet.New
	Grid                 = roadnet.Grid
	GridForIntersections = roadnet.GridForIntersections
	GenerateCity         = roadnet.City
	Partition            = roadnet.Partition
	PerNodeRegions       = roadnet.PerNodeRegions
	SelectODPairs        = roadnet.SelectODPairs
)

// GridConfig and CityConfig parameterize the network generators.
type (
	GridConfig = roadnet.GridConfig
	CityConfig = roadnet.CityConfig
)

// ---- Traffic simulation ----

// Simulator runs TOD tensors into per-link volume/speed observations; it is
// the CityFlow substitute of the paper's pipeline.
type (
	Simulator = sim.Simulator
	SimConfig = sim.Config
	SimResult = sim.Result
	Demand    = sim.Demand
	ODNodes   = sim.ODNodes
)

// Simulator constructor and engine/routing selectors.
var NewSimulator = sim.New

// Engine and routing mode constants.
const (
	EngineMeso        = sim.Meso
	EngineMicro       = sim.Micro
	StaticRouting     = sim.StaticRouting
	DynamicRouting    = sim.DynamicRouting
	StochasticRouting = sim.StochasticRouting
)

// SignalPlan adds fixed-time traffic lights to a simulation; SignalTiming is
// one intersection's cycle.
type (
	SignalPlan   = sim.SignalPlan
	SignalTiming = sim.SignalTiming
)

// UniformSignals signalizes all major intersections with a common cycle.
var UniformSignals = sim.UniformSignals

// FundamentalDiagram is a speed-density relation for the meso engine.
type FundamentalDiagram = fd.Model

// Fundamental diagram families (Greenshields is the default).
var (
	Greenshields = func() fd.Model { return fd.Greenshields{} }
	Greenberg    = func() fd.Model { return fd.Greenberg{} }
	Underwood    = func() fd.Model { return fd.Underwood{} }
	Triangular   = func() fd.Model { return fd.Triangular{} }
)

// ---- Datasets ----

// City bundles a road network with regions and OD pairs; CaseStudy packages
// the two real-world-style scenarios of §V-K.
type (
	City      = dataset.City
	CaseStudy = dataset.CaseStudy
	Pattern   = dataset.Pattern
	TODConfig = dataset.TODConfig
	Sample    = core.Sample
)

// Dataset constructors: the four Table III presets, the synthetic grid, the
// five TOD patterns, and the case-study scenarios.
var (
	Hangzhou      = dataset.Hangzhou
	Porto         = dataset.Porto
	Manhattan     = dataset.Manhattan
	StateCollege  = dataset.StateCollege
	SyntheticGrid = dataset.SyntheticGrid
	GenerateTOD   = dataset.GenerateTOD
	CaseStudy1    = dataset.CaseStudy1
	CaseStudy2    = dataset.CaseStudy2
)

// The five synthetic TOD patterns of Table VIII.
const (
	PatternRandom     = dataset.PatternRandom
	PatternIncreasing = dataset.PatternIncreasing
	PatternDecreasing = dataset.PatternDecreasing
	PatternGaussian   = dataset.PatternGaussian
	PatternPoisson    = dataset.PatternPoisson
)

// RegionKind classifies a region's land use in the city presets.
type RegionKind = dataset.RegionKind

// Region land-use kinds.
const (
	KindResidential = dataset.KindResidential
	KindCommercial  = dataset.KindCommercial
	KindGate        = dataset.KindGate
	KindStadium     = dataset.KindStadium
)

// Auxiliary data feeds (Table II).
type (
	Census       = dataset.Census
	Cameras      = dataset.Cameras
	Trajectories = dataset.Trajectories
)

// Auxiliary data constructors.
var (
	CensusFromTOD       = dataset.CensusFromTOD
	CamerasFromVolume   = dataset.CamerasFromVolume
	TrajectoriesFromTOD = dataset.TrajectoriesFromTOD
)

// ---- The OVS model ----

// Model is the paper's contribution: TOD Generation, TOD-Volume mapping
// with dynamic attention, and Volume-Speed mapping, trained per Fig. 8.
type (
	Model       = core.Model
	ModelConfig = core.Config
	Topology    = core.Topology
	AuxData     = core.AuxData
)

// Model constructors and configurations. DefaultModelConfig is sized for
// fast runs; PaperModelConfig matches Tables IV and V.
var (
	NewTopology        = core.NewTopology
	NewModel           = core.NewModel
	NewAblatedModel    = core.NewAblatedModel
	DefaultModelConfig = core.DefaultConfig
	PaperModelConfig   = core.PaperConfig
)

// ---- Parallel execution ----

// SetWorkers sets the process-wide default worker-pool size used by tensor
// kernels, module builders, the meso engine and the experiment harness
// (n <= 0 restores the GOMAXPROCS default; 1 forces exact-serial execution).
// Results are bitwise-identical at any setting. Workers reports the current
// value.
var (
	SetWorkers = parallel.SetWorkers
	Workers    = parallel.Workers
)

// ---- Serialization ----

// Network, demand, and result (de)serialization plus OSM-style import.
var (
	WriteNetwork = trafficio.WriteNetwork
	ReadNetwork  = trafficio.ReadNetwork
	WriteDemand  = trafficio.WriteDemand
	ReadDemand   = trafficio.ReadDemand
	WriteResult  = trafficio.WriteResult
	ImportOSM    = trafficio.ImportOSM
)
