package main

import (
	"context"
	"encoding/json"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"ovs/internal/tensor"
)

// counters is what the benchmark reads from outside the program at a span
// boundary. Wall and CPU are always read; the rest only in a traced run, so
// an untraced run pays one clock read and one getrusage per boundary.
type counters struct {
	Wall time.Duration // since the recorder's origin
	CPU  time.Duration // process user+system time (getrusage)

	Mallocs, AllocBytes, GCCycles, GCPauseNs uint64 // runtime.MemStats
	Arena                                    tensor.ArenaStats
	Pack                                     tensor.PackCacheStats
}

// delta is the change of counters across one span. PackBytes is the pack
// cache's payload at the span's end (a level, not a count).
type delta struct {
	Wall, CPU                                time.Duration
	Mallocs, AllocBytes, GCCycles, GCPauseNs uint64
	ArenaGets, ArenaMisses, ArenaDiscards    uint64
	PackHits, PackMisses                     uint64
	PackInvalidations, PackEvictions         uint64
	PackBytes                                int64
}

func (c counters) sub(b counters) delta {
	return delta{
		Wall:              c.Wall - b.Wall,
		CPU:               c.CPU - b.CPU,
		Mallocs:           c.Mallocs - b.Mallocs,
		AllocBytes:        c.AllocBytes - b.AllocBytes,
		GCCycles:          c.GCCycles - b.GCCycles,
		GCPauseNs:         c.GCPauseNs - b.GCPauseNs,
		ArenaGets:         (c.Arena.Hits + c.Arena.Misses) - (b.Arena.Hits + b.Arena.Misses),
		ArenaMisses:       c.Arena.Misses - b.Arena.Misses,
		ArenaDiscards:     c.Arena.Discards - b.Arena.Discards,
		PackHits:          c.Pack.Hits - b.Pack.Hits,
		PackMisses:        c.Pack.Misses - b.Pack.Misses,
		PackInvalidations: c.Pack.Invalidations - b.Pack.Invalidations,
		PackEvictions:     c.Pack.Evictions - b.Pack.Evictions,
		PackBytes:         c.Pack.Bytes,
	}
}

// span is one timed call into a layer. Run numbers the operation the span
// belongs to (0 for set-up and the post-run probe); Traced says whether its
// counters beyond wall and CPU time were read.
type span struct {
	ID, Parent, Run int // Parent is -1 for a root span
	Name            string
	Traced          bool
	Begin, End      counters
}

func (s span) delta() delta { return s.End.sub(s.Begin) }

// recorder keeps spans in memory; they are written out once, after the
// measurement. It is used from one goroutine.
type recorder struct {
	traced bool
	origin time.Time
	run    int
	spans  []span
	open   []int
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now()}
}

func (r *recorder) read() counters {
	c := counters{Wall: time.Since(r.origin), CPU: processCPU()}
	if r.traced {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		c.Mallocs, c.AllocBytes = ms.Mallocs, ms.TotalAlloc
		c.GCCycles, c.GCPauseNs = uint64(ms.NumGC), ms.PauseTotalNs
		c.Arena = tensor.Default.Stats()
		c.Pack = tensor.PackCacheStatsSnapshot()
	}
	return c
}

// stage runs fn as a span named name, nested under the innermost open span.
// In a traced run fn also carries the pprof label stage=name, which the
// goroutines it starts inherit, so CPU samples can be split by stage.
func (r *recorder) stage(ctx context.Context, name string, fn func(context.Context) error) error {
	id := len(r.spans)
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: r.run, Name: name, Traced: r.traced, Begin: r.read()})
	r.open = append(r.open, id)
	var err error
	if r.traced {
		pprof.Do(ctx, pprof.Labels("stage", name), func(ctx context.Context) { err = fn(ctx) })
	} else {
		err = fn(ctx)
	}
	r.open = r.open[:len(r.open)-1]
	r.spans[id].End = r.read()
	return err
}

// last returns the most recent span named name in operation run.
func (r *recorder) last(run int, name string) (span, bool) {
	for i := len(r.spans) - 1; i >= 0; i-- {
		if s := r.spans[i]; s.Run == run && s.Name == name {
			return s, true
		}
	}
	return span{}, false
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its children cover. Children that overlap each other are
// merged first, so concurrent children are not subtracted twice.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Begin.Wall, s.End.Wall})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		lo, hi := s.Begin.Wall, s.End.Wall
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return ks[a].lo < ks[b].lo })
		covered, reach := time.Duration(0), lo
		for _, k := range ks {
			a, b := max(k.lo, reach), min(k.hi, hi)
			if b > a {
				covered += b - a
				reach = b
			}
		}
		self[i] = hi - lo - covered
	}
	return self
}

// chromeTrace renders spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), which Perfetto and about:tracing open
// offline. meta lands in the trace's otherData.
func chromeTrace(spans []span, meta any) ([]byte, error) {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	self := selfTimes(spans)
	events := make([]event, len(spans))
	for i, s := range spans {
		d := s.delta()
		args := map[string]any{
			"id": s.ID, "parent": s.Parent, "run": s.Run,
			"self_ms": float64(self[i]) / 1e6, "cpu_ms": float64(d.CPU) / 1e6,
		}
		if s.Traced {
			args["mallocs"], args["alloc_mb"], args["gc_cycles"] = d.Mallocs, float64(d.AllocBytes)/(1<<20), d.GCCycles
			args["arena_gets"], args["arena_misses"] = d.ArenaGets, d.ArenaMisses
			args["pack_hits"], args["pack_misses"], args["pack_invalidations"] = d.PackHits, d.PackMisses, d.PackInvalidations
		}
		events[i] = event{
			Name: s.Name, Cat: "perfbench", Ph: "X",
			Ts: us(s.Begin.Wall), Dur: us(d.Wall), Pid: 1, Tid: 1, Args: args,
		}
	}
	return json.MarshalIndent(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	}, "", " ")
}

// processCPU returns the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
