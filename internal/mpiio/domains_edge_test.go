package mpiio

import (
	"slices"
	"testing"

	"drxmp/internal/pfs"
	"drxmp/internal/place"
)

// Edge-case coverage for the default aggregation-domain carving
// (place.ByteCyclic) as the collective path consumes it through
// splitRun: zero-length runs, single-byte domains, and runs that start
// or end exactly on stripe/domain boundaries, in both the span carving
// (plain collectives) and the block-cyclic carving (write-behind).
// These paths feed every collective call, so their corner behavior is
// pinned explicitly.

// byteCyclic is the default carving of [lo, hi) over n aggregators
// with the given stripe; wb selects the write-behind (block-cyclic)
// mode.
func byteCyclic(lo, hi, stripe int64, n int, wb bool) place.Domains {
	return place.ByteCyclic{}.Carve(place.Req{
		Lo: lo, Hi: hi, TotalBytes: hi - lo,
		Ranks: n, CBNodes: n, Stripe: stripe, WriteBehind: wb,
	})
}

// checkPieces compares a split against the wanted pieces.
func checkPieces(t *testing.T, what string, got, want []piece) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Errorf("%s = %+v, want %+v", what, got, want)
	}
}

// TestCollectiveDomainsSplitZeroLengthRun: a zero-length run produces
// no pieces, regardless of where it sits.
func TestCollectiveDomainsSplitZeroLengthRun(t *testing.T) {
	for _, wb := range []bool{false, true} {
		d := byteCyclic(0, 256, 64, 4, wb)
		for _, off := range []int64{0, 63, 64, 255, 1000} {
			if got := splitRun(d, pfs.Run{Off: off, Len: 0}); len(got) != 0 {
				t.Errorf("wb=%v: split of zero-length run at %d yielded %d pieces", wb, off, len(got))
			}
		}
	}
}

// TestCollectiveDomainsSplitSingleByteDomains: with a 1-byte stripe the
// domain size degenerates to a single byte per aggregator. In the span
// carving every byte of a run lands on its own owner, with the tail
// spilling into the last domain; in the block-cyclic carving ownership
// wraps around every n bytes.
func TestCollectiveDomainsSplitSingleByteDomains(t *testing.T) {
	span := byteCyclic(0, 4, 1, 4, false)
	checkPieces(t, "span split", splitRun(span, pfs.Run{Off: 0, Len: 10}), []piece{
		{owner: 0, run: pfs.Run{Off: 0, Len: 1}},
		{owner: 1, run: pfs.Run{Off: 1, Len: 1}},
		{owner: 2, run: pfs.Run{Off: 2, Len: 1}},
		{owner: 3, run: pfs.Run{Off: 3, Len: 7}}, // the last domain takes the tail
	})
	if end := span.BlockEnd(3); end < 1<<62-1 {
		t.Errorf("span tail BlockEnd(3) = %d, want unbounded", end)
	}

	cyc := byteCyclic(0, 4, 1, 4, true)
	var want []piece
	for i := int64(0); i < 10; i++ {
		want = append(want, piece{owner: int(i % 4), run: pfs.Run{Off: i, Len: 1}})
	}
	checkPieces(t, "cyclic split", splitRun(cyc, pfs.Run{Off: 0, Len: 10}), want)
	if end := cyc.BlockEnd(3); end != 4 {
		t.Errorf("cyclic BlockEnd(3) = %d, want 4", end)
	}

	// A single-byte run in the middle maps to exactly its domain.
	for _, d := range []place.Domains{span, cyc} {
		checkPieces(t, "single-byte split", splitRun(d, pfs.Run{Off: 2, Len: 1}),
			[]piece{{owner: 2, run: pfs.Run{Off: 2, Len: 1}}})
	}
}

// TestCollectiveDomainsSplitBoundaryAligned: runs that start or stop
// exactly on a domain boundary must not leak a byte across it.
func TestCollectiveDomainsSplitBoundaryAligned(t *testing.T) {
	span := byteCyclic(128, 320, 64, 3, false) // domains [128,192) [192,256) [256,∞)
	cyc := byteCyclic(128, 320, 64, 3, true)   // stripe s owned by s mod 3
	cases := []struct {
		what      string
		run       pfs.Run
		span, cyc []piece
	}{
		{"aligned", pfs.Run{Off: 128, Len: 64},
			[]piece{{owner: 0, run: pfs.Run{Off: 128, Len: 64}}},
			[]piece{{owner: 2, run: pfs.Run{Off: 128, Len: 64}}}},
		// Straddle the first boundary by one byte on each side.
		{"straddling", pfs.Run{Off: 191, Len: 2},
			[]piece{{owner: 0, run: pfs.Run{Off: 191, Len: 1}}, {owner: 1, run: pfs.Run{Off: 192, Len: 1}}},
			[]piece{{owner: 2, run: pfs.Run{Off: 191, Len: 1}}, {owner: 0, run: pfs.Run{Off: 192, Len: 1}}}},
		// Past the last domain: the span tail rule absorbs everything,
		// while the cyclic carving keeps cutting at stripes.
		{"tail", pfs.Run{Off: 128 + 3*64 - 1, Len: 10},
			[]piece{{owner: 2, run: pfs.Run{Off: 319, Len: 10}}},
			[]piece{{owner: 1, run: pfs.Run{Off: 319, Len: 1}}, {owner: 2, run: pfs.Run{Off: 320, Len: 9}}}},
	}
	for _, tc := range cases {
		checkPieces(t, "span "+tc.what+" split", splitRun(span, tc.run), tc.span)
		checkPieces(t, "cyclic "+tc.what+" split", splitRun(cyc, tc.run), tc.cyc)
	}
	if end := span.BlockEnd(191); end != 192 {
		t.Errorf("span BlockEnd(191) = %d, want 192", end)
	}
	if end := cyc.BlockEnd(320); end != 384 {
		t.Errorf("cyclic BlockEnd(320) = %d, want 384", end)
	}
}

// TestCollectiveDomainRunsCoalesces: the aggregator's transfer list is
// the coalesced union across ranks — overlapping and adjacent pieces
// from different ranks collapse.
func TestCollectiveDomainRunsCoalesces(t *testing.T) {
	d := byteCyclic(0, 256, 256, 1, false)
	placedBy := [][]placed{
		placePieces(d, []pfs.Run{{Off: 0, Len: 8}, {Off: 16, Len: 8}}),
		placePieces(d, []pfs.Run{{Off: 8, Len: 8}, {Off: 100, Len: 4}}),
		placePieces(d, []pfs.Run{{Off: 4, Len: 10}}), // overlaps both
	}
	got := domainRuns(0, placedBy)
	want := []pfs.Run{{Off: 0, Len: 24}, {Off: 100, Len: 4}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("domainRuns = %+v, want %+v", got, want)
	}
}

// TestCollectiveCapRuns: request capping splits runs without moving
// bytes between them.
func TestCollectiveCapRuns(t *testing.T) {
	runs := []pfs.Run{{Off: 0, Len: 10}, {Off: 20, Len: 3}}
	if got := capRuns(runs, 0); len(got) != 2 { // uncapped
		t.Errorf("uncapped = %+v", got)
	}
	got := capRuns(runs, 4)
	want := []pfs.Run{{Off: 0, Len: 4}, {Off: 4, Len: 4}, {Off: 8, Len: 2}, {Off: 20, Len: 3}}
	if len(got) != len(want) {
		t.Fatalf("capped = %+v, want %+v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("capped = %+v, want %+v", got, want)
		}
	}
	// Cap of 1: one request per byte, order preserved.
	if got := capRuns([]pfs.Run{{Off: 5, Len: 3}}, 1); len(got) != 3 || got[0] != (pfs.Run{Off: 5, Len: 1}) || got[2] != (pfs.Run{Off: 7, Len: 1}) {
		t.Errorf("unit cap = %+v", got)
	}
}
