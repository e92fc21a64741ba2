package main

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"os"
	"sync/atomic"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func tinyRun(t *testing.T, workload string, trace bool, corrupt func([]byte)) result {
	t.Helper()
	cfg := runConfig{workload: workload, seed: 7, seconds: 0.6, trace: trace, tiny: true, workDir: t.TempDir(), corrupt: corrupt}
	res, err := run(cfg, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json's workload and
// metric lists to the ones the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEndUnits) {
		t.Errorf("end_to_end: %d in BENCHMARK.json, %d in the program", len(bj.EndToEnd), len(endToEndUnits))
	}
	for i := range min(len(bj.EndToEnd), len(endToEndUnits)) {
		if bj.EndToEnd[i].Name != endToEndUnits[i].name || bj.EndToEnd[i].Unit != endToEndUnits[i].unit {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, bj.EndToEnd[i], endToEndUnits[i])
		}
	}
	if len(bj.PerLayer) != len(perLayerUnits) {
		t.Errorf("per_layer: %d in BENCHMARK.json, %d in the program", len(bj.PerLayer), len(perLayerUnits))
	}
	for i := range min(len(bj.PerLayer), len(perLayerUnits)) {
		if bj.PerLayer[i].Name != perLayerUnits[i].name || bj.PerLayer[i].Unit != perLayerUnits[i].unit {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, bj.PerLayer[i], perLayerUnits[i])
		}
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that every metric BENCHMARK.json names is emitted with its
// unit and a finite value.
func TestSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, w.Name, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := bj.EndToEnd
			if trace {
				want = bj.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.Name, trace, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestOracleCatchesCorruptRead flips one byte of one read buffer and
// checks the run counts a failed operation and reports incorrect.
func TestOracleCatchesCorruptRead(t *testing.T) {
	for _, w := range []string{"zone-reread", "serve-mixed"} {
		var once atomic.Bool
		res := tinyRun(t, w, false, func(b []byte) {
			if len(b) > 8 && once.CompareAndSwap(false, true) {
				b[3] ^= 0x40
			}
		})
		if !once.Load() {
			t.Fatalf("%s: no read buffer was corrupted", w)
		}
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s: correct=%v failed=%d, want false and 1", w, res.Correct, res.Failed)
		}
	}
}

func TestCheck(t *testing.T) {
	buf := make([]byte, 2*4*8)
	m := uniform{ver: func(i int) uint32 { return uint32(i) }, width: func(int) int { return 14 }}
	fill(buf, 5, 7, 10, 14, m)
	if bad := check(buf, 5, 7, 10, 14, m); bad != 0 {
		t.Fatalf("clean buffer: %d bad", bad)
	}
	// A stale version, a misplaced element and a stray write past the
	// written width are each one wrong element.
	binary.LittleEndian.PutUint64(buf[8:], encode(5, 11, 4))
	binary.LittleEndian.PutUint64(buf[16:], encode(5, 13, 5))
	if bad := check(buf, 5, 7, 10, 14, m); bad != 2 {
		t.Fatalf("got %d bad, want 2", bad)
	}
	narrow := uniform{ver: m.ver, width: func(int) int { return 13 }}
	fill(buf, 5, 7, 10, 14, m)
	if bad := check(buf, 5, 7, 10, 14, narrow); bad != 2 {
		t.Fatalf("past-width elements: %d bad, want 2", bad)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}
