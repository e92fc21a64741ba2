package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/pfs"
)

// setupRepeats is how many times a run sets its workload up before it
// measures; setup_s is the median of all set-ups the run made. Cheap
// set-ups repeat more, so their median settles.
const (
	setupRepeats      = 3
	cheapSetupRepeats = 7
)

// storeOptions is the simulated parallel file system every workload
// uses: in-memory servers charged the default 2007-era disk model with
// RealTime off, so wall-clock figures measure host CPU and the charged
// Busy is reported separately as modelled device time.
func storeOptions(servers int, sched pfs.Scheduler) pfs.Options {
	return pfs.Options{Servers: servers, StripeSize: 64 << 10, Backend: pfs.Mem, Cost: pfs.DefaultCost(), Scheduler: sched}
}

// colZone is rank r's block of whole chunk columns out of cols.
func colZone(cols, chunk, r, n int) (lo, hi int) {
	nc := (cols + chunk - 1) / chunk
	lo, hi = r*nc/n*chunk, (r+1)*nc/n*chunk
	return min(lo, cols), min(hi, cols)
}

// stepTrace carries one rank's span context through a step.
type stepTrace struct {
	tr     *tracer
	trace  int64
	parent int64
	actor  int
}

// call times fn as a span (when tracing) and adds its duration to d.
func (t stepTrace) call(name string, d *time.Duration, fn func() error) error {
	t0 := time.Now()
	err := t.tr.timed(name, t.trace, t.parent, t.actor, fn)
	*d += time.Since(t0)
	return err
}

// stepResult is one rank's share of a collective step.
type stepResult struct {
	dur   time.Duration // time inside the library calls of the step
	bytes int64         // user payload bytes this rank moved
	bad   int64         // elements this rank read back wrong
}

// collWorkload is one rank's side of a collective workload. Every
// method is collective: all ranks call it with the same arguments.
type collWorkload interface {
	setup(c *cluster.Comm, i int) (*drxmp.File, error)
	step(f *drxmp.File, t stepTrace) (stepResult, error)
	// epochEnd reports whether the array starts over after the last step.
	epochEnd() bool
	// readBack reads the whole array and returns the wrong elements and
	// the reads it made.
	readBack(f *drxmp.File) (bad, reads int64, err error)
}

// Step flags, decided by rank 0 before a step's closing barrier and
// read by every rank after it.
const (
	flagStop uint32 = 1 << iota
	flagTraced
)

// slot is the per-step exchange between ranks. Rank 0 can run at most
// one barrier ahead of any other rank, so a ring of four never has a
// slot reused while it is still being read.
type slot struct {
	flags atomic.Uint32
	lat   [ranks]atomic.Int64
	bytes [ranks]atomic.Int64
	bad   [ranks]atomic.Int64
}

// collective runs a collective workload on 2 ranks in one process.
// Every array lives in a world of its own (one cluster.Run): a world
// keeps each store created in it registered until the world ends, so
// an epoch's array is only freed once its world is gone.
type collective struct {
	cfg     runConfig
	mk      func(rank int) collWorkload
	writes  bool // the workload's steps write (else they read)
	repeats int  // set-ups before the measured phase
	slots   [4]slot
	tr      *tracer

	// Rank 0's measurement state. The other ranks read steps only when
	// a world starts, and runCollective reads stopped between worlds.
	out     runOut
	clk     *clock
	rss     rssSampler
	snap0   snap
	steps   int
	stopped bool

	// Read-back tallies, from every rank.
	readBacks, failures atomic.Int64
}

const ranks = 2

func runCollective(cfg runConfig, mk func(rank int) collWorkload, writes bool, repeats int) (*runOut, error) {
	h := &collective{cfg: cfg, mk: mk, writes: writes, repeats: repeats}
	if cfg.trace {
		h.tr = newTracer()
	}
	var err error
	for i := 0; i < h.repeats-1 && err == nil; i++ {
		err = cluster.Run(ranks, func(c *cluster.Comm) error {
			f, err := h.setup(c, h.mk(c.Rank()), i)
			if err != nil {
				return err
			}
			return f.Close()
		})
	}
	for i := h.repeats - 1; err == nil && !h.stopped; i++ {
		err = cluster.Run(ranks, func(c *cluster.Comm) error { return h.epoch(c, i) })
	}
	if h.tr != nil {
		h.out.spans = h.tr.snapshot()
	}
	h.out.attempted += h.readBacks.Load()
	h.out.failed += h.failures.Load()
	return &h.out, err
}

// setup creates and seeds set-up i and records how long it took.
func (h *collective) setup(c *cluster.Comm, w collWorkload, i int) (*drxmp.File, error) {
	if c.Rank() == 0 && i < h.repeats {
		runtime.GC() // each set-up before the measured phase starts from a collected heap
	}
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	f, err := w.setup(c, i)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	if c.Rank() == 0 {
		h.out.setups = append(h.out.setups, time.Since(t0))
	}
	return f, nil
}

// flags is rank 0's decision for the next step.
func (h *collective) flags() uint32 {
	total := time.Duration(h.cfg.seconds * float64(time.Second))
	wall, _ := h.clk.now()
	var f uint32
	if wall >= total {
		f |= flagStop
	}
	if h.cfg.trace && tracedAt(wall, total) {
		f |= flagTraced
	}
	return f
}

// boundary closes and/or opens a traced interval of counters. Every
// rank first flushes the write-behind cache, so each deferred byte is
// counted in the interval that wrote it, then rank 0 snapshots while
// the others wait at a barrier, so no call straddles the snapshot.
func (h *collective) boundary(c *cluster.Comm, f *drxmp.File, closing, opening bool) error {
	if err := f.Sync(); err != nil {
		return err
	}
	if c.Rank() == 0 {
		s := takeSnap(f, nil, nil)
		if closing {
			h.out.acc.add(h.snap0, s)
		}
		if opening {
			h.snap0 = s
		}
	}
	return c.Barrier()
}

// epoch sets up one array, runs steps on it until the workload starts
// over or the measured phase ends, and reads the array back.
func (h *collective) epoch(c *cluster.Comm, i int) error {
	r := c.Rank()
	w := h.mk(r)
	f, err := h.setup(c, w, i)
	if err != nil {
		return err
	}
	k0 := h.steps
	if r == 0 {
		if h.clk == nil {
			h.clk = startClock()
		} else {
			h.clk.resume()
		}
		fl := h.flags()
		h.slots[k0%4].flags.Store(fl)
		if fl&flagTraced != 0 {
			h.snap0 = takeSnap(f, nil, nil)
		}
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	k := k0
	var last uint32 // flags of the last step run
	for ; ; k++ {
		s := &h.slots[k%4]
		fl := s.flags.Load()
		if fl&flagStop != 0 {
			break
		}
		last = fl
		st := stepTrace{trace: int64(k) + 1, actor: r}
		var root span
		if fl&flagTraced != 0 {
			st.tr = h.tr
			root = span{ID: h.tr.newID(), Trace: st.trace, Name: "bench.step", Actor: r, Start: h.tr.now()}
			st.parent = root.ID
		}
		res, err := w.step(f, st)
		if err != nil {
			return fmt.Errorf("step %d: %w", k, err)
		}
		s.lat[r].Store(int64(res.dur))
		s.bytes[r].Store(res.bytes)
		s.bad[r].Store(res.bad)
		next := &h.slots[(k+1)%4]
		if r == 0 {
			next.flags.Store(h.flags())
		}
		if err := st.tr.timed("cluster.barrier", st.trace, st.parent, r, c.Barrier); err != nil {
			return err
		}
		if st.tr != nil {
			root.End = h.tr.now()
			h.tr.add(root)
		}
		if r == 0 {
			h.record(s, fl)
		}
		nf := next.flags.Load()
		if w.epochEnd() {
			k++
			break
		}
		if nf&flagStop == 0 && (nf^fl)&flagTraced != 0 {
			if r == 0 {
				h.clk.pause()
			}
			if err := h.boundary(c, f, fl&flagTraced != 0, nf&flagTraced != 0); err != nil {
				return err
			}
			if r == 0 {
				h.clk.resume()
			}
		}
	}
	if r == 0 {
		h.clk.pause()
		h.steps = k
		h.stopped = h.slots[k%4].flags.Load()&flagStop != 0
	}
	if err := h.boundary(c, f, last&flagTraced != 0, false); err != nil {
		return err
	}
	bad, reads, err := w.readBack(f)
	if err != nil {
		return fmt.Errorf("read-back: %w", err)
	}
	h.readBacks.Add(reads)
	h.failures.Add(min(bad, 1))
	return f.Close()
}

// record appends step k's op (rank 0, after the step's barrier).
func (h *collective) record(s *slot, fl uint32) {
	var lat time.Duration
	var bytes, bad int64
	for r := 0; r < ranks; r++ {
		lat = max(lat, time.Duration(s.lat[r].Load()))
		bytes += s.bytes[r].Load()
		bad += s.bad[r].Load()
	}
	wall, cpu := h.clk.now()
	o := op{write: h.writes, traced: fl&flagTraced != 0, lat: lat, bytes: bytes, end: wall, cpu: cpu, rss: h.rss.sample()}
	h.out.ops = append(h.out.ops, o)
	h.out.attempted++
	if bad > 0 {
		h.out.failed++
	}
	if o.traced {
		h.out.acc.sampleGoroutines()
	}
}

// --- grow-append ---

// growParams sizes grow-append.
type growParams struct {
	chunk      int   // square chunk edge, elements
	rows0      int   // rows seeded when an epoch's array is created
	cols0      int   // initial columns
	k          int   // one step in every k also extends dim 1; Sync every k steps
	epochSteps int   // steps before the array starts over (a multiple of k)
	watermark  int64 // write-behind watermark, bytes
	servers    int
}

func growSizes(tiny bool) growParams {
	if tiny {
		return growParams{chunk: 16, rows0: 32, cols0: 64, k: 4, epochSteps: 8, watermark: 64 << 10, servers: 4}
	}
	return growParams{chunk: 64, rows0: 256, cols0: 512, k: 8, epochSteps: 64, watermark: 1 << 20, servers: 4}
}

// grow is one rank of grow-append: each step extends dim 0 by one
// chunk row, and once in every k steps (at a seeded step of the k)
// also dim 1 by one chunk column, then writes this rank's column zone
// of the new slab with WriteSectionAll; every k-th step ends with a
// Sync checkpoint.
type grow struct {
	p          growParams
	seed       int64
	rank       int
	rng        *rand.Rand // same seed on every rank: every rank extends alike
	es         int        // step within the current epoch
	extAt      int        // the step of the current k that extends dim 1
	rows, cols int
	widths     []int // columns written by each epoch step
	buf        []byte
}

func newGrow(p growParams, seed int64) func(int) collWorkload {
	return func(r int) collWorkload { return &grow{p: p, seed: seed, rank: r} }
}

// model: seeded rows carry version 1 over cols0 columns; the slab of
// epoch step s carries version s+2 over the columns that existed then.
func (g *grow) model() model {
	p := g.p
	return uniform{
		ver: func(i int) uint32 {
			if i < p.rows0 {
				return 1
			}
			return uint32((i-p.rows0)/p.chunk) + 2
		},
		width: func(i int) int {
			if i < p.rows0 {
				return p.cols0
			}
			return g.widths[(i-p.rows0)/p.chunk]
		},
	}
}

func (g *grow) setup(c *cluster.Comm, i int) (*drxmp.File, error) {
	p := g.p
	f, err := drxmp.Create(c, fmt.Sprintf("grow-%d", i), drxmp.Options{
		DType:      drxmp.Float64,
		ChunkShape: []int{p.chunk, p.chunk},
		Bounds:     []int{p.rows0, p.cols0},
		FS:         storeOptions(p.servers, pfs.Elevator),
		Tuning: drxmp.Tuning{
			WriteBehindBytes: p.watermark,
			Placement:        drxmp.PlacementCacheAffinity,
		},
	})
	if err != nil {
		return nil, err
	}
	g.rng = rand.New(rand.NewSource(subSeed(g.seed, int64(i))))
	g.es, g.rows, g.cols, g.widths = 0, p.rows0, p.cols0, g.widths[:0]
	lo, hi := colZone(p.cols0, p.chunk, g.rank, ranks)
	buf := make([]byte, p.rows0*(hi-lo)*8)
	fill(buf, 0, p.rows0, lo, hi, at(1))
	if err := f.WriteSectionAll(drxmp.NewBox([]int{0, lo}, []int{p.rows0, hi}), buf, drxmp.RowMajor); err != nil {
		return nil, err
	}
	return f, f.Sync()
}

func (g *grow) step(f *drxmp.File, t stepTrace) (stepResult, error) {
	p := g.p
	var res stepResult
	es := g.es
	g.es++
	if err := t.call("drxmp.extend", &res.dur, func() error { return f.Extend(0, p.chunk) }); err != nil {
		return res, err
	}
	if es%p.k == 0 {
		g.extAt = es + g.rng.Intn(p.k)
	}
	if es == g.extAt {
		if err := t.call("drxmp.extend", &res.dur, func() error { return f.Extend(1, p.chunk) }); err != nil {
			return res, err
		}
		g.cols += p.chunk
	}
	r0 := g.rows
	g.rows += p.chunk
	g.widths = append(g.widths, g.cols)
	lo, hi := colZone(g.cols, p.chunk, g.rank, ranks)
	n := p.chunk * (hi - lo) * 8
	if cap(g.buf) < n {
		g.buf = make([]byte, n)
	}
	buf := g.buf[:n]
	fill(buf, r0, g.rows, lo, hi, at(uint32(es)+2))
	box := drxmp.NewBox([]int{r0, lo}, []int{g.rows, hi})
	if err := t.call("drxmp.write_all", &res.dur, func() error { return f.WriteSectionAll(box, buf, drxmp.RowMajor) }); err != nil {
		return res, err
	}
	res.bytes = int64(n)
	if es%p.k == p.k-1 {
		if err := t.call("drxmp.sync", &res.dur, f.Sync); err != nil {
			return res, err
		}
	}
	return res, nil
}

func (g *grow) epochEnd() bool { return g.es == g.p.epochSteps }

func (g *grow) readBack(f *drxmp.File) (int64, int64, error) {
	return readBackBands(f, g.rank, g.p.chunk, g.model(), 4*g.p.chunk)
}

// readBackBands reads this rank's column zone of the whole array with
// ReadSectionAll in bands of band rows and checks it against m.
func readBackBands(f *drxmp.File, rank, chunk int, m model, band int) (bad, reads int64, err error) {
	b := f.Bounds()
	lo, hi := colZone(b[1], chunk, rank, ranks)
	buf := make([]byte, band*(hi-lo)*8)
	for r0 := 0; r0 < b[0]; r0 += band {
		r1 := min(r0+band, b[0])
		n := (r1 - r0) * (hi - lo) * 8
		if err := f.ReadSectionAll(drxmp.NewBox([]int{r0, lo}, []int{r1, hi}), buf[:n], drxmp.RowMajor); err != nil {
			return bad, reads, err
		}
		reads++
		bad += check(buf[:n], r0, r1, lo, hi, m)
	}
	return bad, reads, nil
}

// --- zone-reread ---

// zoneParams sizes zone-reread.
type zoneParams struct {
	chunk, rows, cols int
	minBand, maxBand  int // band height range, rows
	cacheBytes        int64
	servers           int
}

func zoneSizes(tiny bool) zoneParams {
	if tiny {
		return zoneParams{chunk: 16, rows: 128, cols: 128, minBand: 8, maxBand: 32, cacheBytes: 1 << 20, servers: 4}
	}
	return zoneParams{chunk: 64, rows: 512, cols: 512, minBand: 16, maxBand: 128, cacheBytes: 16 << 20, servers: 4}
}

// zone is one rank of zone-reread: every step reads this rank's column
// zone of a seeded random band of rows with ReadSectionAll, from an
// array the memory tier holds whole.
type zone struct {
	p    zoneParams
	rank int
	rng  *rand.Rand // same seed on every rank: every rank draws the same band
	buf  []byte
	m    model
	cfg  runConfig
}

func newZone(p zoneParams, cfg runConfig) func(int) collWorkload {
	return func(r int) collWorkload {
		return &zone{p: p, rank: r, rng: rand.New(rand.NewSource(cfg.seed)), cfg: cfg,
			m: at(1)}
	}
}

func (z *zone) setup(c *cluster.Comm, i int) (*drxmp.File, error) {
	p := z.p
	f, err := drxmp.Create(c, fmt.Sprintf("zone-%d", i), drxmp.Options{
		DType:      drxmp.Float64,
		ChunkShape: []int{p.chunk, p.chunk},
		Bounds:     []int{p.rows, p.cols},
		FS:         storeOptions(p.servers, pfs.FIFO),
		Tuning:     drxmp.Tuning{CacheBytes: p.cacheBytes},
	})
	if err != nil {
		return nil, err
	}
	lo, hi := colZone(p.cols, p.chunk, z.rank, ranks)
	band := 4 * p.chunk
	buf := make([]byte, band*(hi-lo)*8)
	for r0 := 0; r0 < p.rows; r0 += band {
		r1 := min(r0+band, p.rows)
		n := (r1 - r0) * (hi - lo) * 8
		fill(buf[:n], r0, r1, lo, hi, at(1))
		if err := f.WriteSectionAll(drxmp.NewBox([]int{r0, lo}, []int{r1, hi}), buf[:n], drxmp.RowMajor); err != nil {
			return nil, err
		}
	}
	// Warm the memory tier: one full collective pass.
	if bad, _, err := readBackBands(f, z.rank, p.chunk, z.m, band); err != nil || bad > 0 {
		return nil, fmt.Errorf("warm pass: %d wrong elements, err %v", bad, err)
	}
	return f, nil
}

func (z *zone) step(f *drxmp.File, t stepTrace) (stepResult, error) {
	p := z.p
	h := p.minBand + z.rng.Intn(p.maxBand-p.minBand+1)
	r0 := z.rng.Intn(p.rows - h + 1)
	lo, hi := colZone(p.cols, p.chunk, z.rank, ranks)
	n := h * (hi - lo) * 8
	if cap(z.buf) < n {
		z.buf = make([]byte, p.maxBand*(hi-lo)*8)
	}
	buf := z.buf[:n]
	var res stepResult
	box := drxmp.NewBox([]int{r0, lo}, []int{r0 + h, hi})
	if err := t.call("drxmp.read_all", &res.dur, func() error { return f.ReadSectionAll(box, buf, drxmp.RowMajor) }); err != nil {
		return res, err
	}
	if z.cfg.corrupt != nil {
		z.cfg.corrupt(buf)
	}
	res.bytes = int64(n)
	res.bad = check(buf, r0, r0+h, lo, hi, z.m)
	return res, nil
}

func (z *zone) epochEnd() bool { return false }

func (z *zone) readBack(f *drxmp.File) (int64, int64, error) {
	return readBackBands(f, z.rank, z.p.chunk, z.m, 4*z.p.chunk)
}
