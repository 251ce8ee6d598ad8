package autodiff

import (
	"slices"
	"sync"

	"ovs/internal/parallel"
)

// This file implements the parallel backward replay of fork groups.
//
// A ForkJoin splices its children onto the tape as contiguous spans, one per
// fork index. The serial sweep replays span n-1 completely, then span n-2,
// and so on down to span 0. The replay runs the spans concurrently instead,
// each span sweeping its own positions in reverse on one worker.
//
// Most of a span's writes land in its own nodes, which no other span reads
// or writes. The rest go to shared destinations:
//
//   - a node outside the span (a Ref passthrough, or a parent operand mixed
//     into a child op directly);
//   - a Param leaf, whose Grad is the one tensor every child's leaf of that
//     Parameter shares.
//
// Before a span's first write to a shared destination, it waits until every
// higher-indexed span has passed its last node that writes there. Every
// element of a shared destination therefore receives the same adds, in the
// same order, as in the serial sweep, so values and gradients are bitwise
// equal at any worker count. Writers of one destination pass it in
// descending span order, so one counter per destination says how many have.
// The gates are placed conservatively: a node counts as a writer when it has
// a backward rule and requires a gradient, even if its own gradient stays
// nil and the rule never runs.
//
// A span is a resumable cursor, so a wait never blocks a thread. A worker
// whose span must wait parks the cursor and takes other work: a ready cursor
// (highest span first), else the next unstarted span, from the highest
// index down. It sleeps only when neither exists. The worker whose signal
// releases a parked span switches to it at once and leaves its own cursor
// ready for any worker, so a chain of waits, such as one Parameter's
// gradient passed down the spans, does not stall on a sleeping thread. No
// worker spins: one with nothing to run sleeps on a condition variable. The
// highest unfinished span never waits, since every span above it is done, so
// the replay cannot deadlock.
//
// Span membership is decided by tape position (Node.pos), never by the child
// graph, because Fork reuses parked children across the groups of one
// forward pass. A span's new gradient buffers and LSTM scratch come from the
// child that recorded it; no two spans of a group share a child. Before a
// span starts, its child's region reserves room for every gradient buffer the
// span may carve, counted from the span's nodes, so the replay keeps the
// memory of the serial sweep instead of one doubled chunk per child.

// forkSpan is one child's contribution to the tape: positions [start, end),
// recorded on sub.
type forkSpan struct {
	start, end int
	sub        *Graph
}

// forkGroup is one ForkJoin: spans[first:last] of its graph, replayed with
// workers goroutines.
type forkGroup struct {
	first, last int
	workers     int
}

// gateKey names a shared destination: a Parameter, whose Param leaves all
// share its Grad, or a node outside the writing span.
type gateKey struct {
	p *Parameter
	n *Node
}

// gateEvent brackets one span's writes to one destination: the span waits
// for rank earlier writers before the node at pos (its first write), and
// counts itself passed after the node at pos (its last write).
type gateEvent struct {
	pos  int
	dest int32
	rank int32
}

// cursor is a span's replay position: the next tape position to run and the
// span's remaining wait and signal events. need is how many floats of
// gradient buffers the span may carve, reserved in its child's region before
// it starts.
type cursor struct {
	span        *forkSpan
	i           int
	waits, sigs []gateEvent
	need        int
}

// dest is the state of one shared destination.
type dest struct {
	passed   int32 // writers that have passed their last write
	writers  int32 // spans seen writing it so far (plan)
	lastSpan int   // span that last touched it (plan)
	entry    int   // that span's index into waits and sigs (plan)
}

// gate is the replay scratch of one graph, reused across groups and passes.
type gate struct {
	ids map[gateKey]int32

	dests []dest

	// Event storage: span n-1-v of an n-span group owns waits[at[v]:at[v+1]]
	// and sigs[at[v]:at[v+1]], each in descending pos order.
	waits, sigs []gateEvent
	at          []int

	// Scheduling, by visiting order v (span n-1-v). Guarded by mu, as are
	// dests[].passed and every cursor not held by a worker.
	mu     sync.Mutex
	cond   sync.Cond
	cur    []cursor
	next   int   // first unstarted v
	parked []int // cursors stopped at an unmet wait
	ready  []int // cursors that can run
	live   int   // unfinished spans
	idle   int   // workers asleep in cond.Wait
}

// replay runs the backward rules of one fork group.
func (g *Graph) replay(grp *forkGroup) {
	gt := &g.gate
	spans := g.spans[grp.first:grp.last]
	gt.plan(g.nodes, spans)
	workers := min(grp.workers, len(spans))
	parallel.ForWorkers(workers, workers, 1, func(lo, hi int) {
		for ; lo < hi; lo++ {
			g.replayWorker()
		}
	})
	clear(gt.ids)
	clear(gt.cur)
}

// replayWorker takes cursors and advances them until every span of the
// group has finished.
func (g *Graph) replayWorker() {
	gt := &g.gate
	for {
		gt.mu.Lock()
		v := gt.take()
		for v < 0 {
			if gt.live == 0 {
				gt.mu.Unlock()
				return
			}
			gt.idle++
			gt.cond.Wait()
			gt.idle--
			v = gt.take()
		}
		gt.mu.Unlock()
		g.advance(v)
	}
}

// take returns the ready cursor of the highest span, else the next
// unstarted span, else -1. The caller holds mu.
func (gt *gate) take() int {
	if len(gt.ready) > 0 {
		best := 0
		for k, v := range gt.ready {
			if v < gt.ready[best] {
				best = k
			}
		}
		v := gt.ready[best]
		gt.ready[best] = gt.ready[len(gt.ready)-1]
		gt.ready = gt.ready[:len(gt.ready)-1]
		return v
	}
	if gt.next < len(gt.cur) {
		gt.next++
		return gt.next - 1
	}
	return -1
}

// makeReady queues cursor v for any worker. The caller holds mu.
func (gt *gate) makeReady(v int) {
	gt.ready = append(gt.ready, v)
	if gt.idle > 0 {
		gt.cond.Signal()
	}
}

// unpark removes and returns the parked cursor whose pending wait on d is
// now met, or -1. Writers of d have distinct ranks, so at most one is. The
// caller holds mu.
func (gt *gate) unpark(d int32) int {
	for k, v := range gt.parked {
		if e := gt.cur[v].waits[0]; e.dest == d && e.rank <= gt.dests[d].passed {
			gt.parked[k] = gt.parked[len(gt.parked)-1]
			gt.parked = gt.parked[:len(gt.parked)-1]
			return v
		}
	}
	return -1
}

// advance runs cursor v, switching to any cursor its signals release, until
// the cursor it holds parks or finishes.
func (g *Graph) advance(v int) {
	gt := &g.gate
	c := &gt.cur[v]
	if c.need > 0 {
		c.span.sub.region.Reserve(c.need)
		c.need = 0
	}
	for i := c.i; i >= c.span.start; i-- {
		if len(c.waits) > 0 && c.waits[0].pos == i {
			gt.mu.Lock()
			for len(c.waits) > 0 && c.waits[0].pos == i {
				if e := c.waits[0]; gt.dests[e.dest].passed < e.rank {
					c.i = i
					gt.parked = append(gt.parked, v)
					gt.mu.Unlock()
					return
				}
				c.waits = c.waits[1:]
			}
			gt.mu.Unlock()
		}
		if n := g.nodes[i]; n.backFn != nil && n.requires && n.Grad != nil {
			n.backFn(n, c.span.sub)
		}
		if len(c.sigs) == 0 || c.sigs[0].pos != i {
			continue
		}
		gt.mu.Lock()
		woke := -1
		for len(c.sigs) > 0 && c.sigs[0].pos == i {
			d := c.sigs[0].dest
			c.sigs = c.sigs[1:]
			gt.dests[d].passed++
			if u := gt.unpark(d); u >= 0 {
				if woke >= 0 {
					gt.makeReady(woke)
				}
				woke = u
			}
		}
		if woke >= 0 && i > c.span.start {
			// Hand this cursor to any worker and carry on down the chain.
			c.i = i - 1
			gt.makeReady(v)
			v, c = woke, &gt.cur[woke]
			i = c.i + 1
		} else if woke >= 0 {
			gt.makeReady(woke)
		}
		gt.mu.Unlock()
	}
	gt.mu.Lock()
	gt.live--
	if gt.live == 0 {
		gt.cond.Broadcast()
	}
	gt.mu.Unlock()
}

// plan scans the spans from the highest down, as the serial sweep visits
// them, lays out each span's wait and signal events, and resets the
// scheduler.
func (gt *gate) plan(nodes []*Node, spans []forkSpan) {
	if gt.ids == nil {
		gt.ids = make(map[gateKey]int32)
		gt.cond.L = &gt.mu
	}
	gt.dests = gt.dests[:0]
	gt.waits, gt.sigs = gt.waits[:0], gt.sigs[:0]
	gt.at = slices.Grow(gt.at[:0], len(spans)+1)[:len(spans)+1]
	gt.cur = slices.Grow(gt.cur[:0], len(spans))[:len(spans)]

	var memo gateKey
	memoID := int32(-1)
	destOf := func(key gateKey) int32 {
		if memoID >= 0 && key == memo {
			return memoID
		}
		d, ok := gt.ids[key]
		if !ok {
			d = int32(len(gt.dests))
			gt.ids[key] = d
			gt.dests = append(gt.dests, dest{lastSpan: -1})
		}
		memo, memoID = key, d
		return d
	}
	for v := range spans {
		k := len(spans) - 1 - v
		sp := &spans[k]
		first := len(gt.waits)
		gt.at[v] = first
		need := 0
		touch := func(o *Node, pos int) {
			if o == nil || !o.requires {
				return
			}
			var key gateKey
			switch {
			case o.param != nil:
				key.p = o.param
			case o.pos < sp.start:
				key.n = o
			default:
				return // the span's own node
			}
			d := destOf(key)
			ds := &gt.dests[d]
			if ds.lastSpan != k {
				if ds.writers == 0 && key.n != nil && o.Grad == nil {
					need += o.Value.Size() // the first writer carves its gradient
				}
				ds.lastSpan, ds.entry = k, len(gt.waits)
				gt.waits = append(gt.waits, gateEvent{pos: pos, dest: d, rank: ds.writers})
				gt.sigs = append(gt.sigs, gateEvent{pos: pos, dest: d})
				return
			}
			gt.sigs[ds.entry].pos = pos
		}
		for i := sp.end - 1; i >= sp.start; i-- {
			n := nodes[i]
			if n.requires && n.Grad == nil {
				need += n.Value.Size()
			}
			if n.backFn == nil || !n.requires {
				continue
			}
			touch(n.a, i)
			touch(n.b, i)
			touch(n.c, i)
			for _, o := range n.srcs {
				touch(o, i)
			}
		}
		for _, e := range gt.waits[first:] {
			gt.dests[e.dest].writers++
		}
		gt.cur[v] = cursor{span: sp, i: sp.end - 1, need: need}
		slices.SortStableFunc(gt.sigs[first:], func(x, y gateEvent) int { return y.pos - x.pos })
	}
	gt.at[len(spans)] = len(gt.waits)

	for v := range gt.cur {
		lo, hi := gt.at[v], gt.at[v+1]
		gt.cur[v].waits, gt.cur[v].sigs = gt.waits[lo:hi], gt.sigs[lo:hi]
	}
	gt.next, gt.live, gt.idle = 0, len(spans), 0
	gt.parked, gt.ready = gt.parked[:0], gt.ready[:0]
}
