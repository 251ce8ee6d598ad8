// Package tensor exercises the arenaescape analyzer's chunk-pool source: a
// chunk taken from the pool belongs to its borrower only until it is put
// back, so it must not outlive the frame. The fixture is loaded under a path
// ending in internal/tensor, where the unexported take lives.
package tensor

type ChunkPool struct {
	free [][]float64
}

func (p *ChunkPool) take(n int) []float64 { return make([]float64, n) }

func (p *ChunkPool) put(c []float64) { p.free = append(p.free, c) }

type entry struct {
	buf []float64
}

var parked []float64

func sum(c []float64) float64 {
	s := 0.0
	for _, v := range c {
		s += v
	}
	return s
}

// borrowAllowed takes a chunk, uses it, and puts it back.
func borrowAllowed(p *ChunkPool) float64 {
	c := p.take(8)
	s := sum(c)
	p.put(c)
	return s
}

// fieldEscape parks a borrowed chunk in a struct field.
func fieldEscape(p *ChunkPool, e *entry) {
	c := p.take(8)
	e.buf = c // want "region-owned memory stored into a struct field"
}

// globalEscape parks a borrowed chunk in a package-level variable.
func globalEscape(p *ChunkPool) {
	parked = p.take(8) // want "region-owned memory stored into a package-level variable"
}

// returnEscape hands a borrowed chunk to the caller.
func returnEscape(p *ChunkPool) []float64 {
	return p.take(8)[:4] // want "region-owned memory returned to the caller"
}

// putDoesNotSettle: a chunk put back is another borrower's now.
func putDoesNotSettle(p *ChunkPool, ch chan []float64) {
	c := p.take(8)
	p.put(c)
	ch <- c // want "region-owned memory sent on a channel"
}
