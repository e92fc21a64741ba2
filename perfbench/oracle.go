package main

import "encoding/binary"

// Every element the benchmark writes is one 64-bit word that encodes
// the element's own coordinates and a write version:
//
//	word = i<<44 | j<<24 | version     (i, j < 2^20; 1 <= version < 2^24)
//
// stored little-endian in a float64 array. The library only moves the
// bytes, so the bit pattern survives unchanged; a zero word is an
// element never written (extension fills with zeros).
const (
	coordLimit = 1 << 20
	verMask    = 1<<24 - 1
)

func encode(i, j int, ver uint32) uint64 {
	return uint64(i)<<44 | uint64(j)<<24 | uint64(ver)
}

// seg is one run of columns [j0, j1) of a row whose elements all
// accept versions in [lo, hi]. lo == 0 means "never written": the word
// must be zero.
type seg struct {
	j0, j1 int
	lo, hi uint32
}

// model describes what a correct read returns: for row i and columns
// [c0, c1) it lists the segs covering them, in column order.
type model interface {
	segs(i, c0, c1 int, out []seg) []seg
}

// fill encodes rows [r0, r1) x cols [c0, c1) row-major into buf, each
// element at the lowest version m accepts for it (zero where m says
// never written).
func fill(buf []byte, r0, r1, c0, c1 int, m model) {
	w := c1 - c0
	var sp []seg
	for i := r0; i < r1; i++ {
		row := buf[(i-r0)*w*8:]
		sp = m.segs(i, c0, c1, sp[:0])
		for _, s := range sp {
			for j := s.j0; j < s.j1; j++ {
				var word uint64
				if s.lo != 0 {
					word = encode(i, j, s.lo)
				}
				binary.LittleEndian.PutUint64(row[(j-c0)*8:], word)
			}
		}
	}
}

// check verifies a row-major buffer over rows [r0, r1) x cols [c0, c1)
// against m and returns the number of wrong elements.
func check(buf []byte, r0, r1, c0, c1 int, m model) int64 {
	w := c1 - c0
	var bad int64
	var sp []seg
	for i := r0; i < r1; i++ {
		row := buf[(i-r0)*w*8 : (i-r0+1)*w*8]
		sp = m.segs(i, c0, c1, sp[:0])
		for _, s := range sp {
			bad += checkSeg(row[(s.j0-c0)*8:(s.j1-c0)*8], i, s)
		}
	}
	return bad
}

func checkSeg(b []byte, i int, s seg) int64 {
	var bad int64
	if s.lo == 0 {
		for k := 0; k < len(b); k += 8 {
			if binary.LittleEndian.Uint64(b[k:]) != 0 {
				bad++
			}
		}
		return bad
	}
	want := uint64(i)<<20 | uint64(s.j0)
	for k := 0; k < len(b); k += 8 {
		w := binary.LittleEndian.Uint64(b[k:])
		v := uint32(w & verMask)
		if w>>24 != want || v < s.lo || v > s.hi {
			bad++
		}
		want++
	}
	return bad
}

// uniform is the model of an array whose rows each carry one version
// across the columns written so far: row i holds version ver(i) on
// columns [0, width(i)) and zeros beyond.
type uniform struct {
	ver   func(i int) uint32
	width func(i int) int
}

func (u uniform) segs(i, c0, c1 int, out []seg) []seg {
	v, w := u.ver(i), u.width(i)
	if w > c0 {
		out = append(out, seg{j0: c0, j1: min(w, c1), lo: v, hi: v})
	}
	if w < c1 {
		out = append(out, seg{j0: max(w, c0), j1: c1})
	}
	return out
}

// at is the model of an array written whole at version v.
func at(v uint32) model {
	return uniform{ver: func(int) uint32 { return v }, width: func(int) int { return coordLimit }}
}
