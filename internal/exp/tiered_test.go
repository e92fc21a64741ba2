package exp

import (
	"testing"
	"time"
)

// TestE23SpillBeatsRAMOnlyWarmReread pins the tiered-cache acceptance
// bar at Quick scale: on the oversized-working-set re-read the spill
// config's warm pass issues fewer pfs reads than RAM-only (the bytes
// come back from the local slab file instead), actually moves bytes
// through the spill tier in both directions, and is at least 1.5x
// faster — MB/s over the same bytes, so the wall-time ratio is the
// throughput ratio.
func TestE23SpillBeatsRAMOnlyWarmReread(t *testing.T) {
	const n, servers = 512, 8
	stripe := int64(512)
	ram, err := e23Run(n, servers, stripe, e23Config{name: "ram-only"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := e23Run(n, servers, stripe, e23Config{name: "spill", spill: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ramWarm, spWarm := ram[1], sp[1]
	if ramWarm.Reads == 0 {
		t.Fatal("RAM-only warm pass hit entirely in memory; the working set no longer exceeds the budget")
	}
	if spWarm.Reads >= ramWarm.Reads {
		t.Fatalf("spill warm pass issued %d pfs reads, RAM-only %d; want fewer", spWarm.Reads, ramWarm.Reads)
	}
	cs := spWarm.Cache
	if cs.SpillDemoted == 0 || cs.SpillPromoted == 0 || cs.SpillHits == 0 {
		t.Fatalf("spill tier never exercised: %+v", cs)
	}
	if float64(ramWarm.Wall) < 1.5*float64(spWarm.Wall) {
		t.Fatalf("spill warm = %v vs RAM-only warm = %v; want >= 1.5x throughput",
			spWarm.Wall.Round(time.Microsecond), ramWarm.Wall.Round(time.Microsecond))
	}
}

// TestE23ReadAheadHalvesColdMisses pins what static read-ahead buys
// the forward scan: a slab is four sieve blocks, so with
// ReadAheadBytes at four blocks every cold miss also prefetches the
// next slab, and the cold pass misses exactly half as often as spill
// alone (32 vs 64 at n=512). The counts are deterministic: the scan is
// serial, and a prefetched slab is read before it can be evicted.
func TestE23ReadAheadHalvesColdMisses(t *testing.T) {
	const n, servers = 512, 8
	stripe := int64(512)
	cold := map[string]int64{}
	for _, cfg := range e23Configs(stripe)[1:] {
		ps, err := e23Run(n, servers, stripe, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		cold[cfg.name] = ps[0].Cache.Misses
	}
	if cold["spill"] != 64 || cold["spill+read-ahead"] != 32 {
		t.Fatalf("cold-pass misses: spill %d, spill+read-ahead %d; want 64 and 32",
			cold["spill"], cold["spill+read-ahead"])
	}
}
