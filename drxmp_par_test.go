package drxmp_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
)

// TestParallelSerialSectionsIdentical writes a principal array through
// the parallel independent-I/O path and a twin through the serial path,
// then cross-reads both with every order/parallelism combination: all
// byte buffers must be identical. This pins the tentpole invariant —
// parallel dispatch of the run groups is invisible to the data.
func TestParallelSerialSectionsIdentical(t *testing.T) {
	const n = 97 // deliberately not a multiple of the chunk shape
	chunk := []int{16, 8}
	rng := rand.New(rand.NewSource(42))
	vals := make([]byte, n*n*8)
	rng.Read(vals)

	err := cluster.Run(1, func(c *cluster.Comm) error {
		mk := func(name string, parallelism int) (*drxmp.File, error) {
			return drxmp.Create(c, name, drxmp.Options{
				DType: drxmp.Float64, ChunkShape: chunk, Bounds: []int{n, n},
				FS:     pfs.Options{Servers: 4, StripeSize: 4 << 10},
				Tuning: drxmp.Tuning{Parallelism: parallelism},
			})
		}
		ser, err := mk("par-ser", -1)
		if err != nil {
			return err
		}
		defer ser.Close()
		parf, err := mk("par-par", 8)
		if err != nil {
			return err
		}
		defer parf.Close()

		full := drxmp.NewBox([]int{0, 0}, []int{n, n})
		if err := ser.WriteSection(full, vals, drxmp.RowMajor); err != nil {
			return err
		}
		if err := parf.WriteSection(full, vals, drxmp.RowMajor); err != nil {
			return err
		}

		for trial := 0; trial < 40; trial++ {
			lo := []int{rng.Intn(n), rng.Intn(n)}
			hi := []int{lo[0] + 1 + rng.Intn(n-lo[0]), lo[1] + 1 + rng.Intn(n-lo[1])}
			box := drxmp.NewBox(lo, hi)
			order := drxmp.RowMajor
			if trial%2 == 1 {
				order = drxmp.ColMajor
			}
			want := make([]byte, box.Volume()*8)
			if err := ser.ReadSection(box, want, order); err != nil {
				return err
			}
			got := make([]byte, box.Volume()*8)
			if err := parf.ReadSection(box, got, order); err != nil {
				return err
			}
			if !bytes.Equal(want, got) {
				return fmt.Errorf("trial %d: parallel read of %v (order %v) differs from serial", trial, box, order)
			}
		}

		// The files themselves must hold identical bytes: re-read the
		// parallel-written file through the serial path.
		tn := parf.Tuning()
		tn.Parallelism = -1
		if err := parf.SetTuning(tn); err != nil {
			return err
		}
		got := make([]byte, n*n*8)
		if err := parf.ReadSection(full, got, drxmp.RowMajor); err != nil {
			return err
		}
		want := make([]byte, n*n*8)
		if err := ser.ReadSection(full, want, drxmp.RowMajor); err != nil {
			return err
		}
		if !bytes.Equal(want, got) {
			return fmt.Errorf("parallel-written file differs from serial-written file")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParallelPartialChunkWrites drives the parallel write path over
// boxes that cover chunks only partially (per-run writes, no
// whole-chunk fast path) and verifies against a shadow buffer.
func TestParallelPartialChunkWrites(t *testing.T) {
	const n = 64
	chunk := []int{16, 16}
	rng := rand.New(rand.NewSource(7))
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := drxmp.Create(c, "par-partial", drxmp.Options{
			DType: drxmp.Float64, ChunkShape: chunk, Bounds: []int{n, n},
			FS:     pfs.Options{Servers: 4, StripeSize: 2 << 10},
			Tuning: drxmp.Tuning{Parallelism: 6},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		shadow := make([]byte, n*n*8)
		for trial := 0; trial < 30; trial++ {
			lo := []int{rng.Intn(n), rng.Intn(n)}
			hi := []int{lo[0] + 1 + rng.Intn(n-lo[0]), lo[1] + 1 + rng.Intn(n-lo[1])}
			box := drxmp.NewBox(lo, hi)
			data := make([]byte, box.Volume()*8)
			rng.Read(data)
			if err := f.WriteSection(box, data, drxmp.RowMajor); err != nil {
				return err
			}
			// Mirror into the row-major shadow.
			w := hi[1] - lo[1]
			for i := lo[0]; i < hi[0]; i++ {
				srcOff := (i - lo[0]) * w * 8
				dstOff := (i*n + lo[1]) * 8
				copy(shadow[dstOff:dstOff+w*8], data[srcOff:srcOff+w*8])
			}
		}
		full := drxmp.NewBox([]int{0, 0}, []int{n, n})
		got := make([]byte, n*n*8)
		if err := f.ReadSection(full, got, drxmp.RowMajor); err != nil {
			return err
		}
		if !bytes.Equal(shadow, got) {
			return fmt.Errorf("parallel partial writes diverged from shadow")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
