package drxmp

import (
	"testing"

	"drxmp/internal/cluster"
)

// TestSyncWorkersResolution pins the DistArray section-sync worker
// bound: GetSection/PutSection take the larger of the independent and
// collective parallelism budgets, so a serial independent knob no
// longer caps one-sided section transfers when the collective budget
// is wider.
func TestSyncWorkersResolution(t *testing.T) {
	err := cluster.Run(1, func(c *cluster.Comm) error {
		f, err := Create(c, "syncw", Options{
			DType: Float64, ChunkShape: []int{4, 4}, Bounds: []int{8, 8},
			Tuning: Tuning{Parallelism: -1, CollectiveParallelism: 6},
		})
		if err != nil {
			return err
		}
		defer f.Close()
		if got := f.syncWorkers(); got != 6 {
			t.Errorf("syncWorkers() = %d, want 6 (collective budget wins)", got)
		}
		if err := f.SetTuning(Tuning{Parallelism: -1, CollectiveParallelism: -1}); err != nil {
			return err
		}
		if got := f.syncWorkers(); got != 1 {
			t.Errorf("syncWorkers() with both serial = %d, want 1", got)
		}
		if err := f.SetTuning(Tuning{Parallelism: 4, CollectiveParallelism: -1}); err != nil {
			return err
		}
		if got := f.syncWorkers(); got != 4 {
			t.Errorf("syncWorkers() = %d, want 4 (independent budget wins)", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
