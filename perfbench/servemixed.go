package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"drxmp"
	"drxmp/internal/cluster"
	"drxmp/internal/drxclient"
	"drxmp/internal/pfs"
	"drxmp/internal/serve"
)

// serveParams sizes serve-mixed.
type serveParams struct {
	chunk, n   int // n x n float64 array of chunk x chunk chunks
	memBytes   int64
	spillBytes int64
	zipfS      float64 // zipf exponent of the chunk popularity
	putShare   float64
	warmReads  int
	servers    int
}

func serveSizes(tiny bool) serveParams {
	if tiny {
		return serveParams{chunk: 16, n: 256, memBytes: 64 << 10, spillBytes: 192 << 10, zipfS: 1.1, putShare: 0.2, warmReads: 100, servers: 4}
	}
	// 32 MiB array, 4 MiB memory tier (1/8), 12 MiB spill tier (3/8).
	return serveParams{chunk: 64, n: 2048, memBytes: 4 << 20, spillBytes: 12 << 20, zipfS: 1.1, putShare: 0.2, warmReads: 2000, servers: 4}
}

// serveConfig is drxserve's shipped serving configuration (its flag
// defaults).
func serveConfig() serve.Config {
	return serve.Config{
		CoalesceWindow:      500 * time.Microsecond,
		MaxInFlightRequests: 64,
		MaxInFlightBytes:    256 << 20,
		MaxQueuedRequests:   256,
		RequestTimeout:      30 * time.Second,
	}
}

const clients = 2

// versions is the serve-mixed model: per chunk, the last version a
// PUT was acknowledged at and the last version a PUT was sent with.
// Every PUT covers whole chunks, so per-chunk versions are exact per
// element. Only a chunk's owner writes it; readers load atomically.
type versions struct {
	acked, issued []atomic.Uint32
}

// boxModel accepts, per chunk of a box, versions in [lo, hi].
type boxModel struct {
	chunk    int
	ci0, cj0 int // first chunk row and column of the box
	wc       int // chunk columns in the box
	lo, hi   []uint32
}

func (m *boxModel) segs(i, c0, c1 int, out []seg) []seg {
	ci := i/m.chunk - m.ci0
	for j := c0; j < c1; {
		cj := j / m.chunk
		e := min((cj+1)*m.chunk, c1)
		k := ci*m.wc + cj - m.cj0
		out = append(out, seg{j0: j, j1: e, lo: m.lo[k], hi: m.hi[k]})
		j = e
	}
	return out
}

// chunkBox is a box of whole chunks: chunk rows [ci, ci+h), columns
// [cj, cj+w).
type chunkBox struct{ ci, cj, h, w int }

func (b chunkBox) elems(chunk, n int) (lo, hi []int) {
	return []int{b.ci * chunk, b.cj * chunk}, []int{min((b.ci+b.h)*chunk, n), min((b.cj+b.w)*chunk, n)}
}

// model snapshots the accepted range of every chunk of b: from the
// acknowledged version (taken before the request) to the issued one
// (taken after the response).
func (v *versions) model(b chunkBox, chunk, nc int, lo []uint32) *boxModel {
	m := &boxModel{chunk: chunk, ci0: b.ci, cj0: b.cj, wc: b.w, lo: lo, hi: make([]uint32, len(lo))}
	for k := range lo {
		m.hi[k] = v.issued[(b.ci+k/b.w)*nc+b.cj+k%b.w].Load()
	}
	return m
}

func (v *versions) ackedOf(b chunkBox, nc int) []uint32 {
	lo := make([]uint32, b.h*b.w)
	for k := range lo {
		lo[k] = v.acked[(b.ci+k/b.w)*nc+b.cj+k%b.w].Load()
	}
	return lo
}

// picker draws zipf-skewed boxes of 1-4 chunks.
type picker struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	order    []int // popularity rank -> chunk index
	nc       int   // chunks per side
	rowLimit [2]int
}

// newPicker draws from the chunks of order (most popular first) whose
// chunk row lies in [row0, row1).
func newPicker(rng *rand.Rand, s float64, order []int, nc, row0, row1 int) *picker {
	var own []int
	for _, c := range order {
		if r := c / nc; r >= row0 && r < row1 {
			own = append(own, c)
		}
	}
	return &picker{rng: rng, zipf: rand.NewZipf(rng, s, 1, uint64(len(own)-1)), order: own, nc: nc, rowLimit: [2]int{row0, row1}}
}

// popularity is the seeded popularity order of the nc x nc chunks,
// shared by the warm-up and every client.
func popularity(seed int64, nc int) []int {
	return rand.New(rand.NewSource(subSeed(seed, 0))).Perm(nc * nc)
}

func (p *picker) next() chunkBox {
	c := p.order[p.zipf.Uint64()]
	b := chunkBox{ci: c / p.nc, cj: c % p.nc, h: 1 + p.rng.Intn(2), w: 1 + p.rng.Intn(2)}
	b.h = min(b.h, p.rowLimit[1]-b.ci)
	b.w = min(b.w, p.nc-b.cj)
	return b
}

// serveEnv is one set-up of serve-mixed: the array, its server and the
// listener clients talk to.
type serveEnv struct {
	f    *drxmp.File
	srv  *serve.Server
	http *http.Server
	addr string
	done chan error
}

func (e *serveEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.http.Shutdown(ctx)
	if serr := <-e.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func runServeMixed(cfg runConfig) (*runOut, error) {
	p := serveSizes(cfg.tiny)
	nc := (p.n + p.chunk - 1) / p.chunk
	out := &runOut{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	ver := &versions{acked: make([]atomic.Uint32, nc*nc), issued: make([]atomic.Uint32, nc*nc)}
	// Each discarded set-up runs in a world of its own, which releases
	// its store when it ends.
	for i := 0; i < setupRepeats-1; i++ {
		err := cluster.Run(1, func(c *cluster.Comm) error {
			runtime.GC() // each set-up starts from a collected heap
			t0 := time.Now()
			env, err := serveSetup(c, cfg, p, nil, ver, i)
			if err != nil {
				return err
			}
			out.setups = append(out.setups, time.Since(t0))
			if err := env.stop(); err != nil {
				return err
			}
			return env.f.Close()
		})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	err := cluster.Run(1, func(c *cluster.Comm) error {
		return serveMixed(c, cfg, p, tr, ver, out)
	})
	if tr != nil {
		out.spans = tr.snapshot()
	}
	return out, err
}

// serveSetup creates set-up i of serve-mixed: it creates the array,
// writes every element at version 1, warms the cache tiers with the
// clients' GET popularity and starts the HTTP server.
func serveSetup(c *cluster.Comm, cfg runConfig, p serveParams, tr *tracer, ver *versions, i int) (*serveEnv, error) {
	nc := (p.n + p.chunk - 1) / p.chunk
	for k := range ver.acked {
		ver.acked[k].Store(1)
		ver.issued[k].Store(1)
	}
	f, err := drxmp.Create(c, fmt.Sprintf("serve-%d", i), drxmp.Options{
		DType:      drxmp.Float64,
		ChunkShape: []int{p.chunk, p.chunk},
		Bounds:     []int{p.n, p.n},
		FS:         storeOptions(p.servers, pfs.FIFO),
		Tuning: drxmp.Tuning{
			CacheBytes: p.memBytes,
			SpillBytes: p.spillBytes,
			SpillPath:  filepath.Join(cfg.workDir, fmt.Sprintf("spill-%d.dat", i)),
		},
	})
	if err != nil {
		return nil, err
	}
	band := 4 * p.chunk
	buf := make([]byte, band*p.n*8)
	for r0 := 0; r0 < p.n; r0 += band {
		r1 := min(r0+band, p.n)
		b := buf[:(r1-r0)*p.n*8]
		fill(b, r0, r1, 0, p.n, at(1))
		if err := f.WriteSection(drxmp.NewBox([]int{r0, 0}, []int{r1, p.n}), b, drxmp.RowMajor); err != nil {
			f.Close()
			return nil, err
		}
	}
	// Warm the cache tiers with the GET popularity the clients use.
	warm := newPicker(rand.New(rand.NewSource(subSeed(cfg.seed, 1))), p.zipfS, popularity(cfg.seed, nc), nc, 0, nc)
	for k := 0; k < p.warmReads; k++ {
		lo, hi := warm.next().elems(p.chunk, p.n)
		box := drxmp.NewBox(lo, hi)
		if err := f.ReadSection(box, buf[:box.Volume()*8], drxmp.RowMajor); err != nil {
			f.Close()
			return nil, err
		}
	}
	srv := serve.New(serveConfig())
	if err := srv.Register("a", f); err != nil {
		f.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Close()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tracingHandler(tr, h)
	}
	e := &serveEnv{f: f, srv: srv, http: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { e.done <- e.http.Serve(ln) }()
	return e, nil
}

func serveMixed(c *cluster.Comm, cfg runConfig, p serveParams, tr *tracer, ver *versions, out *runOut) error {
	nc := (p.n + p.chunk - 1) / p.chunk
	order := popularity(cfg.seed, nc)
	runtime.GC()
	t0 := time.Now()
	env, err := serveSetup(c, cfg, p, tr, ver, setupRepeats-1)
	if err != nil {
		return err
	}
	out.setups = append(out.setups, time.Since(t0))

	transport := &http.Transport{MaxIdleConnsPerHost: 2 * clients, DisableCompression: true}
	defer transport.CloseIdleConnections()
	var rt http.RoundTripper = transport
	if tr != nil {
		rt = &tracingTransport{base: transport, tr: tr}
	}
	cl := make([]*drxclient.Client, clients)
	for k := range cl {
		cl[k] = drxclient.New("http://"+env.addr, drxclient.Options{Transport: rt, Seed: cfg.seed + int64(k)})
	}

	total := time.Duration(cfg.seconds * float64(time.Second))
	clk := startClock()
	res := make([]clientRun, clients)
	var wg sync.WaitGroup
	for k := range cl {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			res[k] = runClient(k, cl[k], cfg, p, ver, order, nc, clk, total, tr)
		}(k)
	}
	if cfg.trace {
		// Snapshot the counters at every block boundary; requests in
		// flight across one are attributed to the block they end in.
		block := traceBlock(total)
		var s0 snap
		b := 1
		for ; time.Duration(b)*block < total; b++ {
			wall, _ := clk.now()
			time.Sleep(time.Duration(b)*block - wall)
			s := takeSnap(env.f, env.srv, cl)
			if b%2 == 0 {
				out.acc.add(s0, s)
			} else {
				s0 = s
			}
		}
		wg.Wait()
		if b%2 == 0 { // the last block was traced
			out.acc.add(s0, takeSnap(env.f, env.srv, cl))
		}
	} else {
		wg.Wait()
	}
	for _, r := range res {
		out.ops = append(out.ops, r.ops...)
		out.attempted += r.attempted
		out.failed += r.failed
		out.acc.gPeak = max(out.acc.gPeak, r.gPeak)
	}
	if err := env.stop(); err != nil {
		return err
	}
	// Full read-back: with no request in flight every chunk must hold
	// exactly its acknowledged version (or a later issued one, if a PUT
	// failed after reaching the store).
	band := p.chunk
	buf := make([]byte, band*p.n*8)
	for ci := 0; ci < nc; ci++ {
		b := chunkBox{ci: ci, cj: 0, h: 1, w: nc}
		lo, hi := b.elems(p.chunk, p.n)
		box := drxmp.NewBox(lo, hi)
		rb := buf[:box.Volume()*8]
		out.attempted++
		if err := env.f.ReadSection(box, rb, drxmp.RowMajor); err != nil {
			out.failed++
			continue
		}
		if check(rb, lo[0], hi[0], 0, p.n, ver.model(b, p.chunk, nc, ver.ackedOf(b, nc))) > 0 {
			out.failed++
		}
	}
	return env.f.Close()
}

// clientRun is one client's tally.
type clientRun struct {
	ops               []op
	attempted, failed int64
	gPeak             int64
}

// runClient is one closed-loop client: 80% GETs of zipf-popular boxes
// anywhere, 20% PUTs of zipf-popular boxes in the half of the chunk
// rows it owns, each request sent when the previous one returned.
func runClient(k int, c *drxclient.Client, cfg runConfig, p serveParams, ver *versions, order []int, nc int, clk *clock, total time.Duration, tr *tracer) clientRun {
	var r clientRun
	rng := rand.New(rand.NewSource(subSeed(cfg.seed, 2+int64(k))))
	get := newPicker(rng, p.zipfS, order, nc, 0, nc)
	row0, row1 := k*nc/clients, (k+1)*nc/clients
	put := newPicker(rng, p.zipfS, order, nc, row0, row1)
	ctx := context.Background()
	var payload []byte
	var rss rssSampler
	for {
		wall, _ := clk.now()
		if wall >= total {
			return r
		}
		traced := cfg.trace && tracedAt(wall, total)
		isPut := rng.Float64() < p.putShare
		var b chunkBox
		if isPut {
			b = put.next()
		} else {
			b = get.next()
		}
		lo, hi := b.elems(p.chunk, p.n)
		n := (hi[0] - lo[0]) * (hi[1] - lo[1]) * 8
		cctx := ctx
		var call span
		if traced {
			call = span{ID: tr.newID(), Name: "drxclient.call", Actor: k, Kind: "GET", Start: tr.now()}
			call.Trace = call.ID
			if isPut {
				call.Kind = "PUT"
			}
			cctx = withCall(ctx, callInfo{trace: call.Trace, span: call.ID, actor: k})
		}
		r.attempted++
		var lat time.Duration
		var bad bool
		if isPut {
			m := &boxModel{chunk: p.chunk, ci0: b.ci, cj0: b.cj, wc: b.w, lo: make([]uint32, b.h*b.w)}
			for q := range m.lo {
				m.lo[q] = ver.issued[(b.ci+q/b.w)*nc+b.cj+q%b.w].Add(1)
			}
			m.hi = m.lo
			if cap(payload) < n {
				payload = make([]byte, n)
			}
			fill(payload[:n], lo[0], hi[0], lo[1], hi[1], m)
			t0 := time.Now()
			err := c.WriteSection(cctx, "a", lo, hi, payload[:n])
			lat = time.Since(t0)
			if err != nil {
				bad = true
			} else {
				for q, v := range m.lo {
					ver.acked[(b.ci+q/b.w)*nc+b.cj+q%b.w].Store(v)
				}
			}
		} else {
			before := ver.ackedOf(b, nc)
			t0 := time.Now()
			body, err := c.ReadSection(cctx, "a", lo, hi)
			lat = time.Since(t0)
			if err != nil || len(body) != n {
				bad = true
			} else {
				if cfg.corrupt != nil {
					cfg.corrupt(body)
				}
				bad = check(body, lo[0], hi[0], lo[1], hi[1], ver.model(b, p.chunk, nc, before)) > 0
			}
		}
		if traced {
			call.End = tr.now()
			tr.add(call)
			r.gPeak = max(r.gPeak, goroutines())
		}
		if bad {
			r.failed++
		}
		wall, cpu := clk.now()
		r.ops = append(r.ops, op{write: isPut, traced: traced, lat: lat, bytes: int64(n), end: wall, cpu: cpu, rss: rss.sample()})
	}
}
