package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// CollectiveBenchResult is one row of the BENCH_collective.json
// artifact the CI bench-smoke step emits: throughput of the two-phase
// collective under one scheduler/cb_nodes configuration, so the perf
// trajectory of the I/O stack is tracked across PRs.
type CollectiveBenchResult struct {
	Config  string  `json:"config"`   // "fifo/fixed", "elevator/adaptive", ...
	WriteMS float64 `json:"write_ms"` // wall time of write_all
	ReadMS  float64 `json:"read_ms"`  // wall time of read_all
	MBps    float64 `json:"mbps"`     // write+read bytes over total wall time
	Seeks   int64   `json:"seeks"`    // simulated seeks charged by the servers

	// Serving-tier rows only (ServeBench): HTTP request throughput and
	// how much of the burst the serving mechanisms absorbed before it
	// reached the store.
	ReqPerSec     float64 `json:"req_per_sec,omitempty"`
	CoalesceRatio float64 `json:"coalesce_ratio,omitempty"`
	SFHitRate     float64 `json:"single_flight_hit_rate,omitempty"`

	// Degraded-read rows only (DegradedBench): the read-latency tail
	// and how many segments were served by erasure reconstruction.
	ReadP99MS     float64 `json:"read_p99_ms,omitempty"`
	DegradedReads int64   `json:"degraded_reads,omitempty"`

	// Resilient-client rows only (ResilientBench): what fraction of
	// launched hedges beat the primary attempt.
	HedgeWinRate float64 `json:"hedge_win_rate,omitempty"`

	// Tiered-cache rows only (TieredCacheBench): server reads the warm
	// pass still issued and bytes promoted back from the spill tier.
	WarmReads     int64 `json:"warm_reads,omitempty"`
	SpillPromoted int64 `json:"spill_promoted,omitempty"`

	// Placement rows only (PlacementBench): elected per-region flush
	// sweeps and how much of the aggregation exchange stayed on the
	// writing rank under the active placement policy.
	OwnedSweeps      int64 `json:"owned_sweeps,omitempty"`
	DomainLocalBytes int64 `json:"domain_local_bytes,omitempty"`
	DomainRemoteB    int64 `json:"domain_remote_bytes,omitempty"`
}

// CollectiveBench runs one write_all+read_all round of the E18
// interleaved workload per scheduler/cb_nodes configuration and
// returns the throughput rows.
func CollectiveBench(sc Scale) ([]CollectiveBenchResult, error) {
	n := sc.pick(192, 384)
	const ranks = 4
	const servers = 8
	stripe := int64(2 << 10) // matches E18, so the artifact tracks its table
	bytesMoved := float64(2 * n * n * 8)
	var out []CollectiveBenchResult
	for _, cfg := range e18Configs() {
		wallW, wallR, seeks, _, _, err := e18Run(n, ranks, servers, stripe, e18Cost(), cfg.sched, cfg.cbNodes)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.name, err)
		}
		total := wallW + wallR
		out = append(out, CollectiveBenchResult{
			Config:  cfg.name,
			WriteMS: float64(wallW) / float64(time.Millisecond),
			ReadMS:  float64(wallR) / float64(time.Millisecond),
			MBps:    bytesMoved / (1 << 20) * float64(time.Second) / float64(total),
			Seeks:   seeks,
		})
	}
	return out, nil
}

// WriteBehindBench runs the E19 multi-round collective write epoch per
// write-behind policy and returns throughput rows for the artifact
// ("e19/immediate", "e19/watermark", "e19/close-only"). ReadMS is zero
// — the epoch is write-only; WriteMS includes the final Sync, so
// deferred flush time is charged to the policy that deferred it.
func WriteBehindBench(sc Scale) ([]CollectiveBenchResult, error) {
	n := sc.pick(192, 384)
	const ranks = 4
	const servers = 8
	stripe := int64(2 << 10)
	bytesMoved := float64(n) * float64(n) * 8
	var out []CollectiveBenchResult
	for _, cfg := range e19Configs() {
		wall, seeks, _, _, _, err := e19Run(n, ranks, servers, 1, stripe, cfg.wb)
		if err != nil {
			return nil, fmt.Errorf("e19/%s: %w", cfg.name, err)
		}
		out = append(out, CollectiveBenchResult{
			Config:  "e19/" + cfg.name,
			WriteMS: float64(wall) / float64(time.Millisecond),
			MBps:    bytesMoved / (1 << 20) * float64(time.Second) / float64(wall),
			Seeks:   seeks,
		})
	}
	return out, nil
}

// ReadCacheBench runs the E20 two-pass collective read epoch per cache
// policy and returns throughput rows for the artifact: "e20/no-cache"
// (warm pass without a cache — the re-read baseline), "e20/cold" (the
// cache's first pass, paying the sieve fetches), and "e20/warm" (the
// re-read served from the shared extent cache). WriteMS is zero — the
// epochs are read-only.
func ReadCacheBench(sc Scale) ([]CollectiveBenchResult, error) {
	n := sc.pick(192, 384)
	const ranks = 4
	const servers = 8
	stripe := int64(2 << 10)
	bytesMoved := float64(n) * float64(n) * 8
	row := func(config string, wall time.Duration, seeks int64) CollectiveBenchResult {
		return CollectiveBenchResult{
			Config: config,
			ReadMS: float64(wall) / float64(time.Millisecond),
			MBps:   bytesMoved / (1 << 20) * float64(time.Second) / float64(wall),
			Seeks:  seeks,
		}
	}
	_, warmOff, _, seeksOff, _, _, err := e20Run(n, ranks, servers, stripe,
		func(int64) int64 { return 0 }, 0, false)
	if err != nil {
		return nil, fmt.Errorf("e20/no-cache: %w", err)
	}
	cold, warm, _, seeks, _, _, err := e20Run(n, ranks, servers, stripe, e20Budget, 0, false)
	if err != nil {
		return nil, fmt.Errorf("e20/cache: %w", err)
	}
	return []CollectiveBenchResult{
		row("e20/no-cache", warmOff, seeksOff),
		row("e20/cold", cold, seeks),
		row("e20/warm", warm, seeks),
	}, nil
}

// TieredCacheBench runs the E23 oversized-working-set re-read per tier
// policy and returns the warm-pass throughput rows for the artifact:
// "e23/ram-only" (the scan wraps past the LRU budget and re-pays the
// servers), "e23/spill" (evictions demote to the local slab file, the
// re-read promotes back), and "e23/spill+read-ahead" (plus four sieve
// blocks of static read-ahead). WriteMS is zero — the passes are
// read-only.
func TieredCacheBench(sc Scale) ([]CollectiveBenchResult, error) {
	n := sc.pick(512, 2048)
	const servers = 8
	stripe := int64(512)
	bytesMoved := float64(n) * 32 * 8
	var out []CollectiveBenchResult
	for _, cfg := range e23Configs(stripe) {
		ps, err := e23Run(n, servers, stripe, cfg, 2)
		if err != nil {
			return nil, fmt.Errorf("e23/%s: %w", cfg.name, err)
		}
		warm := ps[1]
		out = append(out, CollectiveBenchResult{
			Config:        "e23/" + cfg.name,
			ReadMS:        float64(warm.Wall) / float64(time.Millisecond),
			MBps:          bytesMoved / (1 << 20) * float64(time.Second) / float64(warm.Wall),
			Seeks:         warm.Seeks,
			WarmReads:     warm.Reads,
			SpillPromoted: warm.Cache.SpillPromoted,
		})
	}
	return out, nil
}

// PlacementBench runs the E24 repeated-slab-rewrite epoch per
// placement policy plus the flush-election cell and returns the
// warm-pass throughput rows for the artifact: "e24/byte-cyclic" (the
// PR 2 carving, scattered-stripe sweeps), "e24/zone-curve" and
// "e24/cache-affinity" (chunk-aware contiguous regions), and
// "e24/unelected" (cache-affinity with uncoordinated watermark
// flushing on the banded epoch). ReadMS is zero — the epochs are
// write-only; WriteMS is the mean warm epoch including its Sync.
func PlacementBench(sc Scale) ([]CollectiveBenchResult, error) {
	n := sc.pick(512, 1024)
	const ranks = 4
	const servers = 6
	stripe := int64(2 << 10)
	bytesMoved := float64(n) * 32 * 8
	var out []CollectiveBenchResult
	for _, c := range []struct {
		cfg   e24Config
		bands int
	}{
		{e24Config{"byte-cyclic", "byte-cyclic", false}, 1},
		{e24Config{"zone-curve", "zone-curve", false}, 1},
		{e24Config{"cache-affinity", "cache-affinity", false}, 1},
		{e24Config{"unelected", "cache-affinity", true}, 8},
	} {
		res, err := e24Run(n, ranks, servers, c.bands, stripe, c.cfg, 3)
		if err != nil {
			return nil, fmt.Errorf("e24/%s: %w", c.cfg.name, err)
		}
		warmWall, warmSeeks := e24Warm(res)
		out = append(out, CollectiveBenchResult{
			Config:           "e24/" + c.cfg.name,
			WriteMS:          float64(warmWall) / float64(time.Millisecond),
			MBps:             bytesMoved / (1 << 20) * float64(time.Second) / float64(warmWall),
			Seeks:            warmSeeks,
			OwnedSweeps:      res.Cache.OwnedFlushes,
			DomainLocalBytes: res.LocalBytes,
			DomainRemoteB:    res.RemoteBytes,
		})
	}
	return out, nil
}

// WriteCollectiveBenchJSON runs CollectiveBench, WriteBehindBench,
// ReadCacheBench, ServeBench, DegradedBench, ResilientBench,
// TieredCacheBench and PlacementBench and writes the combined rows to
// path as indented JSON — the BENCH_collective.json artifact CI
// uploads per PR.
func WriteCollectiveBenchJSON(path string, sc Scale) error {
	rows, err := CollectiveBench(sc)
	if err != nil {
		return err
	}
	wbRows, err := WriteBehindBench(sc)
	if err != nil {
		return err
	}
	rows = append(rows, wbRows...)
	rcRows, err := ReadCacheBench(sc)
	if err != nil {
		return err
	}
	rows = append(rows, rcRows...)
	svRows, err := ServeBench(sc)
	if err != nil {
		return err
	}
	rows = append(rows, svRows...)
	dgRows, err := DegradedBench(sc)
	if err != nil {
		return err
	}
	rows = append(rows, dgRows...)
	rsRows, err := ResilientBench(sc)
	if err != nil {
		return err
	}
	rows = append(rows, rsRows...)
	tcRows, err := TieredCacheBench(sc)
	if err != nil {
		return err
	}
	rows = append(rows, tcRows...)
	plRows, err := PlacementBench(sc)
	if err != nil {
		return err
	}
	rows = append(rows, plRows...)
	blob, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
