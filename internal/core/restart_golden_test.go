package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// Golden fingerprint of a three-restart test-time fit on the small test
// topology: SHA-256 digests over the float64 bits of the recovered TOD and of
// the winning restart's loss history. They pin the restart engine — seed
// draws, per-restart fits and winner selection — bit for bit across changes.
// Like the Table VI golden, the constants hold only on restartGoldenArch.
const (
	restartGoldenArch    = "amd64"
	restartGoldenTOD     = "52707742b059a66f16cb0b22626908ae10a6781437cce3ce1cdaf2376405277d"
	restartGoldenHistory = "3f6a08766772b0a5992a64faeeb0fcf5bfd708bc494cd9c0684e53dff370dbc9"
)

// bitsDigest returns the hex SHA-256 of the little-endian float64 bits of xs.
func bitsDigest(xs []float64) string {
	bits := make([]byte, 0, 8*len(xs))
	for _, v := range xs {
		bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(v))
	}
	sum := sha256.Sum256(bits)
	return hex.EncodeToString(sum[:])
}

// TestGoldenFitRestarts checks that FitBestCtx and Checkpointer.FitBest with
// three restarts recover the pinned TOD and loss history at Workers ∈ {1, 2}.
func TestGoldenFitRestarts(t *testing.T) {
	if runtime.GOARCH != restartGoldenArch {
		t.Skipf("golden constants were recorded on %s, not %s", restartGoldenArch, runtime.GOARCH)
	}
	const epochs, restarts = 4, 3
	topo := testTopo(t, 4, 1)
	build := func(workers int) *Model {
		cfg := DefaultConfig()
		cfg.MaxTrips = 50
		cfg.Seed = 29
		cfg.SmoothWeight = 0.1
		cfg.Workers = workers
		return NewModel(topo, cfg)
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			check := func(name string, tod, hist []float64) {
				t.Helper()
				if got := bitsDigest(tod); got != restartGoldenTOD {
					t.Errorf("%s: TOD digest %s, want %s", name, got, restartGoldenTOD)
				}
				if got := bitsDigest(hist); got != restartGoldenHistory {
					t.Errorf("%s: history digest %s, want %s", name, got, restartGoldenHistory)
				}
			}
			m := build(workers)
			tod, hist, err := m.FitBestCtx(context.Background(), fitObs(m, 12), epochs, restarts, nil)
			if err != nil {
				t.Fatal(err)
			}
			check("FitBestCtx", tod.Data, hist)

			m = build(workers)
			c, err := NewCheckpointer(m, CkptOptions{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			tod, hist, err = c.FitBest(context.Background(), fitObs(m, 12), epochs, restarts, nil)
			if err != nil {
				t.Fatal(err)
			}
			check("Checkpointer.FitBest", tod.Data, hist)
		})
	}
}
