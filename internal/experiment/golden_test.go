package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"ovs/internal/dataset"
	"ovs/internal/parallel"
)

// Golden fingerprint of EXPERIMENTS.md Table VI, Hangzhou row, OVS, at
// TestScale and seed 1 (printed as 13.98 / 0.54 / 0.06). The constants pin
// every bit of the result: the RMSE triple's float64 bits and a SHA-256 over
// the recovered TOD's bits. Floating-point results are only bit-stable within
// one instruction set (FMA contraction and the assembly kernels differ per
// architecture), so the test runs only on goldenArch.
const (
	goldenArch      = "amd64"
	goldenTODBits   = 0x402bf579f71c26a7
	goldenVolBits   = 0x3fe12e520a58629d
	goldenSpeedBits = 0x3fae1cae3f498575
	goldenTODSHA256 = "5e3f9319495ca22482ca71429951378a0b7b8113eace5d096a2fec094b0fb615"
)

// TestGoldenTableVIHangzhou checks that the Table VI Hangzhou recovery is
// bitwise unchanged at Workers ∈ {1, 2}. A change that moves any number of
// the reproduction, however slightly, fails here; one that means to must
// re-record the constants and say so.
func TestGoldenTableVIHangzhou(t *testing.T) {
	if testing.Short() {
		t.Skip("full TestScale pipeline is too slow for -short")
	}
	if runtime.GOARCH != goldenArch {
		t.Skipf("golden constants were recorded on %s, not %s", goldenArch, runtime.GOARCH)
	}
	old := parallel.Workers()
	defer parallel.SetWorkers(old)

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			parallel.SetWorkers(workers)
			ctx := context.Background()
			sc := TestScale()
			city, err := dataset.ByName("Hangzhou", dataset.CityOptions{ODPairs: sc.ODPairs, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			env, err := NewEnv(ctx, city, sc, 1)
			if err != nil {
				t.Fatal(err)
			}
			tod, _, _, err := env.RunOVS(ctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			triple, err := env.Evaluate(ctx, tod)
			if err != nil {
				t.Fatal(err)
			}
			bits := make([]byte, 0, 8*len(tod.Data))
			for _, v := range tod.Data {
				bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(v))
			}
			digest := sha256.Sum256(bits)
			sum := hex.EncodeToString(digest[:])
			for _, c := range []struct {
				name string
				got  float64
				want uint64
			}{
				{"TOD", triple.TOD, goldenTODBits},
				{"volume", triple.Volume, goldenVolBits},
				{"speed", triple.Speed, goldenSpeedBits},
			} {
				if math.Float64bits(c.got) != c.want {
					t.Errorf("RMSE %s = %v (bits %#x), want %v (bits %#x)",
						c.name, c.got, math.Float64bits(c.got), math.Float64frombits(c.want), c.want)
				}
			}
			if sum != goldenTODSHA256 {
				t.Errorf("recovered TOD sha256 = %s, want %s", sum, goldenTODSHA256)
			}
		})
	}
}

// goldenTableVIIIRandom pins Table VIII's Random column at TestScale and
// seed 1 (`ovstables -exp tableviii -scale test -seed 1`): the float64 bits
// of every method's RMSE triple (TOD, volume, speed), in Env.Methods order
// followed by OVS. The baselines are pinned too, so kernels they share with
// OVS (EM's MatVec, for one) cannot drift unnoticed.
var goldenTableVIIIRandom = []struct {
	method             string
	tod, volume, speed uint64
}{
	{"Gravity", 0x40354433a418f99c, 0x3ffb9bd5049f8097, 0x3fd299feaebd31a7},
	{"Genetic", 0x4038f50f7d27e0df, 0x3ff4d19dd2988a3d, 0x3fc73ed785f86b27},
	{"GLS", 0x403f44df41175f10, 0x4004bcefdd2cc4ab, 0x3fdb68ce70f02bb3},
	{"EM", 0x4037f6e994ab9a85, 0x3ff9da32e84f6700, 0x3fd030ce28cddd4d},
	{"NN", 0x403441d53ebafba5, 0x3ff39d550fb6e577, 0x3fc944ab965a2c9f},
	{"LSTM", 0x403627a351f51088, 0x3ffadff3e0bf0d40, 0x3fd1ef259b508a10},
	{"OVS", 0x404df2e860a3363f, 0x40310713e8a5704e, 0x400562282f7e8658},
}

// TestGoldenTableVIIIRandom checks that the Table VIII Random comparison,
// baselines included, is bitwise unchanged at Workers ∈ {1, 2}.
func TestGoldenTableVIIIRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("full TestScale comparison is too slow for -short")
	}
	if runtime.GOARCH != goldenArch {
		t.Skipf("golden constants were recorded on %s, not %s", goldenArch, runtime.GOARCH)
	}
	old := parallel.Workers()
	defer parallel.SetWorkers(old)

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			parallel.SetWorkers(workers)
			ctx := context.Background()
			env, err := NewSyntheticEnv(ctx, dataset.PatternRandom, TestScale(), 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunComparison(ctx, env, dataset.PatternRandom.String())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != len(goldenTableVIIIRandom) {
				t.Fatalf("got %d rows, want %d", len(res.Rows), len(goldenTableVIIIRandom))
			}
			for i, want := range goldenTableVIIIRandom {
				row := res.Rows[i]
				if row.Method != want.method {
					t.Errorf("row %d method = %s, want %s", i, row.Method, want.method)
					continue
				}
				for _, c := range []struct {
					name string
					got  float64
					want uint64
				}{
					{"TOD", row.Metrics.TOD, want.tod},
					{"volume", row.Metrics.Volume, want.volume},
					{"speed", row.Metrics.Speed, want.speed},
				} {
					if math.Float64bits(c.got) != c.want {
						t.Errorf("%s RMSE %s = %v (bits %#x), want %v (bits %#x)", want.method,
							c.name, c.got, math.Float64bits(c.got), math.Float64frombits(c.want), c.want)
					}
				}
			}
		})
	}
}
