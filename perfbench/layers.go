package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"drxmp"
	"drxmp/internal/drxclient"
	"drxmp/internal/pfs"
	"drxmp/internal/serve"
)

// snap is one reading of every layer's public counters.
type snap struct {
	pfs    pfs.Stats
	cache  drxmp.CacheStats
	serve  serve.ArrayStats
	client drxclient.ClientStats
	rt     rt
}

// takeSnap reads the counters of file f, and of the serving tier when
// srv is non-nil.
func takeSnap(f *drxmp.File, srv *serve.Server, clients []*drxclient.Client) snap {
	s := snap{pfs: f.FS().Stats(), cache: f.CacheStats(), rt: readRT()}
	if srv != nil {
		if st := srv.Stats(); len(st.Arrays) > 0 {
			s.serve = st.Arrays[0]
		}
	}
	for _, c := range clients {
		cs := c.Stats()
		s.client.Calls += cs.Calls
		s.client.Attempts += cs.Attempts
		s.client.Retries += cs.Retries
		s.client.Errors += cs.Errors
	}
	return s
}

// acc sums counter deltas over the traced blocks of a run, which may
// span several files (grow-append starts a new array every epoch).
type acc struct {
	pfs    pfs.Stats
	cache  drxmp.CacheStats
	serve  serve.ArrayStats
	client drxclient.ClientStats
	rt     rt
	gPeak  int64
}

// add accumulates the counter movement between two snapshots.
func (a *acc) add(from, to snap) {
	d := to.pfs.Sub(from.pfs)
	if len(a.pfs.PerServer) < len(d.PerServer) {
		a.pfs.PerServer = append(a.pfs.PerServer, make([]pfs.ServerStats, len(d.PerServer)-len(a.pfs.PerServer))...)
	}
	for i, s := range d.PerServer {
		p := &a.pfs.PerServer[i]
		p.Reads += s.Reads
		p.Writes += s.Writes
		p.BytesRead += s.BytesRead
		p.BytesWritten += s.BytesWritten
		p.Seeks += s.Seeks
		p.Busy += s.Busy
		p.LocalBytes += s.LocalBytes
		p.RemoteBytes += s.RemoteBytes
		p.ReqSize.Merge(s.ReqSize)
		p.SvcTime.Merge(s.SvcTime)
	}
	c := to.cache.Sub(from.cache)
	a.cache.Absorbed += c.Absorbed
	a.cache.Flushes += c.Flushes
	a.cache.OwnedFlushes += c.OwnedFlushes
	a.cache.HitBytes += c.HitBytes
	a.cache.MissBytes += c.MissBytes
	a.cache.SieveFetched += c.SieveFetched
	a.cache.Evicted += c.Evicted
	a.cache.FlushEvicted += c.FlushEvicted
	a.cache.SpillDemoted += c.SpillDemoted
	a.cache.SpillPromoted += c.SpillPromoted
	a.cache.SpillHitBytes += c.SpillHitBytes
	a.cache.SpillRejected += c.SpillRejected

	a.serve.Admission.Admitted += to.serve.Admission.Admitted - from.serve.Admission.Admitted
	a.serve.Admission.Waits += to.serve.Admission.Waits - from.serve.Admission.Waits
	a.serve.Admission.Shed += to.serve.Admission.Shed - from.serve.Admission.Shed
	a.serve.Coalesce.Batched += to.serve.Coalesce.Batched - from.serve.Coalesce.Batched
	a.serve.Coalesce.Merged += to.serve.Coalesce.Merged - from.serve.Coalesce.Merged
	a.serve.Coalesce.AmpBytes += to.serve.Coalesce.AmpBytes - from.serve.Coalesce.AmpBytes
	a.serve.SingleFlight.Fills += to.serve.SingleFlight.Fills - from.serve.SingleFlight.Fills
	a.serve.SingleFlight.Hits += to.serve.SingleFlight.Hits - from.serve.SingleFlight.Hits

	a.client.Calls += to.client.Calls - from.client.Calls
	a.client.Attempts += to.client.Attempts - from.client.Attempts
	a.client.Retries += to.client.Retries - from.client.Retries
	a.rt = a.rt.add(to.rt.sub(from.rt))
}

func (a *acc) sampleGoroutines() { a.gPeak = max(a.gPeak, goroutines()) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerMetric is a per-layer figure with the base it was computed
// from, printed beside it in the per-layer table.
type layerMetric struct {
	name  string
	value float64
	unit  string
	base  string
}

// perLayerUnits lists every per-layer metric a traced run reports, in
// table order, with its unit. BENCHMARK.json's per_layer list matches
// it (the package test checks).
var perLayerUnits = []struct{ name, unit string }{
	{"bench.read_p50_ms", "ms"}, {"bench.read_p99_ms", "ms"},
	{"bench.write_p50_ms", "ms"}, {"bench.write_p99_ms", "ms"},
	{"bench.error_rate", "ratio"}, {"bench.trace_overhead", "ratio"},
	{"drxclient.self_ms_p50", "ms"}, {"drxclient.attempts_per_call", "ratio"}, {"drxclient.retries", "count"},
	{"serve.handler_get_ms_p50", "ms"}, {"serve.handler_get_ms_p99", "ms"},
	{"serve.handler_put_ms_p50", "ms"}, {"serve.handler_put_ms_p99", "ms"},
	{"serve.admission_wait_ratio", "ratio"}, {"serve.shed", "count"},
	{"serve.coalesce_merged_ratio", "ratio"}, {"serve.coalesce_amp_ratio", "ratio"},
	{"serve.single_flight_hit_ratio", "ratio"},
	{"drxmp.read_all_ms_p50", "ms"}, {"drxmp.read_all_ms_p99", "ms"},
	{"drxmp.write_all_ms_p50", "ms"},
	{"drxmp.extend_ms_p50", "ms"}, {"drxmp.extend_ms_p99", "ms"},
	{"drxmp.sync_ms_p50", "ms"}, {"drxmp.sync_ms_p99", "ms"},
	{"cluster.barrier_wait_ms_p50", "ms"}, {"cluster.barrier_wait_ms_p99", "ms"},
	{"mpiio.hit_byte_ratio", "ratio"}, {"mpiio.sieve_efficiency", "ratio"},
	{"mpiio.evicted_mb_per_mb", "MB/MB"}, {"mpiio.absorbed_mb", "MB/MB"},
	{"mpiio.flushes_per_mb", "1/MB"}, {"mpiio.flush_evicted_mb", "MB/MB"},
	{"mpiio.owned_flush_ratio", "ratio"},
	{"spill.hit_byte_ratio", "ratio"}, {"spill.promoted_mb", "MB/MB"},
	{"spill.demoted_mb", "MB/MB"}, {"spill.rejected", "count"},
	{"place.domain_local_ratio", "ratio"},
	{"pfs.device_ms_per_mb", "ms/MB"}, {"pfs.requests_per_mb", "1/MB"},
	{"pfs.seeks_per_mb", "1/MB"}, {"pfs.read_amp", "ratio"}, {"pfs.write_amp", "ratio"},
	{"pfs.busy_imbalance", "ratio"}, {"pfs.req_size_p50_kb", "KiB"}, {"pfs.svc_ms_p99", "ms"},
	{"go.alloc_bytes_per_byte", "ratio"}, {"go.allocs_per_op", "count"},
	{"go.gc_cpu_fraction", "ratio"}, {"go.goroutines_peak", "count"},
}

// ratio is a/b, or 0 when the base is empty; the table prints the base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func pctOf(v []float64, p float64) (float64, string) {
	return pct(v, p), fmt.Sprintf("%d spans", len(v))
}

// layers computes every per-layer metric of a traced run from its
// traced-block counter deltas, spans and ops.
func layers(r *runOut) []layerMetric {
	a, spans := &r.acc, r.spans
	var out []layerMetric
	put := func(name string, v float64, base string) {
		out = append(out, layerMetric{name: name, value: v, base: base})
	}
	untraced := func(o op) bool { return !o.traced }
	var tracedOps []op
	var rdB, wrB int64
	for _, o := range r.ops {
		if o.traced {
			tracedOps = append(tracedOps, o)
			if o.write {
				wrB += o.bytes
			} else {
				rdB += o.bytes
			}
		}
	}
	userMB := float64(rdB+wrB) / 1e6
	mbBase := fmt.Sprintf("per %.3f user MB (%d ops)", userMB, len(tracedOps))

	// bench: the workload's own timings, from the untraced blocks.
	reads := latencies(r.ops, func(o op) bool { return untraced(o) && !o.write })
	writes := latencies(r.ops, func(o op) bool { return untraced(o) && o.write })
	for _, x := range []struct {
		name string
		v    []float64
		p    float64
	}{{"bench.read_p50_ms", reads, .5}, {"bench.read_p99_ms", reads, .99}, {"bench.write_p50_ms", writes, .5}, {"bench.write_p99_ms", writes, .99}} {
		put(x.name, pct(x.v, x.p), fmt.Sprintf("%d untraced ops", len(x.v)))
	}
	put("bench.error_rate", ratio(float64(r.failed), float64(r.attempted)), fmt.Sprintf("%d failed / %d attempted", r.failed, r.attempted))
	tu, nu := modeRate(r.ops, false)
	tt, nt := modeRate(r.ops, true)
	put("bench.trace_overhead", ratio(tu-tt, tu), fmt.Sprintf("1 - traced %.2f MB/s (%d ops) / untraced %.2f MB/s (%d ops)", tt, nt, tu, nu))

	// drxclient and serve: request spans and serving counters.
	byName := map[string][]span{}
	handlers := map[int64][]span{}
	for _, s := range spans {
		key := s.Name
		if s.Kind != "" {
			key += " " + s.Kind
		}
		byName[key] = append(byName[key], s)
		if s.Name == "serve.handler" {
			handlers[s.Trace] = append(handlers[s.Trace], s)
		}
	}
	var self []float64
	for _, key := range []string{"drxclient.call GET", "drxclient.call PUT"} {
		for _, c := range byName[key] {
			self = append(self, ms(c.dur()-covered(c, handlers[c.Trace])))
		}
	}
	v, b := pctOf(self, .5)
	put("drxclient.self_ms_p50", v, "client call minus handler, "+b)
	cs := a.client
	put("drxclient.attempts_per_call", ratio(float64(cs.Attempts), float64(cs.Calls)), fmt.Sprintf("%d attempts / %d calls", cs.Attempts, cs.Calls))
	put("drxclient.retries", float64(cs.Retries), fmt.Sprintf("over %d calls", cs.Calls))
	durs := func(key string) []float64 {
		var d []float64
		for _, s := range byName[key] {
			d = append(d, ms(s.dur()))
		}
		return d
	}
	for _, x := range []struct{ name, key string }{
		{"serve.handler_get_ms", "serve.handler GET"}, {"serve.handler_put_ms", "serve.handler PUT"},
		{"drxmp.read_all_ms", "drxmp.read_all"}, {"drxmp.write_all_ms", "drxmp.write_all"},
		{"drxmp.extend_ms", "drxmp.extend"}, {"drxmp.sync_ms", "drxmp.sync"},
		{"cluster.barrier_wait_ms", "cluster.barrier"},
	} {
		d := durs(x.key)
		v, b := pctOf(d, .5)
		put(x.name+"_p50", v, b)
		if x.name != "drxmp.write_all_ms" {
			v, b = pctOf(d, .99)
			put(x.name+"_p99", v, b)
		}
	}
	sv := a.serve
	put("serve.admission_wait_ratio", ratio(float64(sv.Admission.Waits), float64(sv.Admission.Admitted)), fmt.Sprintf("%d queued / %d admitted", sv.Admission.Waits, sv.Admission.Admitted))
	put("serve.shed", float64(sv.Admission.Shed), fmt.Sprintf("over %d admitted", sv.Admission.Admitted))
	put("serve.coalesce_merged_ratio", ratio(float64(sv.Coalesce.Merged), float64(sv.Coalesce.Batched)), fmt.Sprintf("%d merged / %d batched reads", sv.Coalesce.Merged, sv.Coalesce.Batched))
	put("serve.coalesce_amp_ratio", ratio(float64(sv.Coalesce.AmpBytes), float64(rdB)), fmt.Sprintf("%d amplified bytes / %d user read bytes", sv.Coalesce.AmpBytes, rdB))
	fl := sv.SingleFlight
	put("serve.single_flight_hit_ratio", ratio(float64(fl.Hits), float64(fl.Hits+fl.Fills)), fmt.Sprintf("%d hits / %d lookups", fl.Hits, fl.Hits+fl.Fills))

	// mpiio and spill: the extent cache.
	c := a.cache
	req := float64(c.HitBytes + c.MissBytes)
	reqBase := fmt.Sprintf("of %d requested cache bytes", c.HitBytes+c.MissBytes)
	put("mpiio.hit_byte_ratio", ratio(float64(c.HitBytes), req), fmt.Sprintf("%d hit bytes (any tier) ", c.HitBytes)+reqBase)
	put("mpiio.sieve_efficiency", ratio(float64(c.MissBytes), float64(c.SieveFetched)), fmt.Sprintf("%d miss bytes / %d sieve-fetched bytes", c.MissBytes, c.SieveFetched))
	perMB := func(x int64) float64 { return ratio(float64(x)/1e6, userMB) }
	put("mpiio.evicted_mb_per_mb", perMB(c.Evicted), fmt.Sprintf("%d evicted bytes ", c.Evicted)+mbBase)
	put("mpiio.absorbed_mb", perMB(c.Absorbed), fmt.Sprintf("%d absorbed bytes ", c.Absorbed)+mbBase)
	put("mpiio.flushes_per_mb", ratio(float64(c.Flushes), userMB), fmt.Sprintf("%d flush sweeps ", c.Flushes)+mbBase)
	put("mpiio.flush_evicted_mb", perMB(c.FlushEvicted), fmt.Sprintf("%d flush-evicted bytes ", c.FlushEvicted)+mbBase)
	put("mpiio.owned_flush_ratio", ratio(float64(c.OwnedFlushes), float64(c.Flushes)), fmt.Sprintf("%d elected sweeps / %d sweeps", c.OwnedFlushes, c.Flushes))
	put("spill.hit_byte_ratio", ratio(float64(c.SpillHitBytes), req), fmt.Sprintf("%d spill-hit bytes ", c.SpillHitBytes)+reqBase)
	put("spill.promoted_mb", perMB(c.SpillPromoted), fmt.Sprintf("%d promoted bytes ", c.SpillPromoted)+mbBase)
	put("spill.demoted_mb", perMB(c.SpillDemoted), fmt.Sprintf("%d demoted bytes ", c.SpillDemoted)+mbBase)
	put("spill.rejected", float64(c.SpillRejected), "demotions refused")

	// place and pfs: the servers.
	p := a.pfs
	loc, rem := p.DomainLocalBytes(), p.DomainRemoteBytes()
	put("place.domain_local_ratio", ratio(float64(loc), float64(loc+rem)), fmt.Sprintf("%d local / %d placed bytes", loc, loc+rem))
	put("pfs.device_ms_per_mb", ratio(ms(p.Elapsed()), userMB), fmt.Sprintf("max server Busy %.3f ms ", ms(p.Elapsed()))+mbBase)
	put("pfs.requests_per_mb", ratio(float64(p.Requests()), userMB), fmt.Sprintf("%d requests ", p.Requests())+mbBase)
	put("pfs.seeks_per_mb", ratio(float64(p.Seeks()), userMB), fmt.Sprintf("%d seeks ", p.Seeks())+mbBase)
	var wrote int64
	for _, s := range p.PerServer {
		wrote += s.BytesWritten
	}
	put("pfs.read_amp", ratio(float64(p.BytesRead()), float64(rdB)), fmt.Sprintf("%d server bytes read / %d user bytes read", p.BytesRead(), rdB))
	put("pfs.write_amp", ratio(float64(wrote), float64(wrB)), fmt.Sprintf("%d server bytes written / %d user bytes written", wrote, wrB))
	var mean float64
	if n := len(p.PerServer); n > 0 {
		mean = float64(p.BusySum()) / float64(n)
	}
	put("pfs.busy_imbalance", ratio(float64(p.Elapsed()), mean), fmt.Sprintf("max %.3f ms / mean %.3f ms Busy over %d servers", ms(p.Elapsed()), mean/1e6, len(p.PerServer)))
	rs, st := p.ReqSizes(), p.SvcTimes()
	put("pfs.req_size_p50_kb", float64(rs.Quantile(.5))/1024, fmt.Sprintf("power-of-two bucket bound over %d requests", rs.Total()))
	put("pfs.svc_ms_p99", float64(st.Quantile(.99))/1e3, fmt.Sprintf("power-of-two bucket bound over %d requests", st.Total()))

	// go: the process runtime.
	put("go.alloc_bytes_per_byte", ratio(a.rt.allocBytes, float64(rdB+wrB)), fmt.Sprintf("%.0f heap bytes allocated / %d user bytes", a.rt.allocBytes, rdB+wrB))
	put("go.allocs_per_op", ratio(a.rt.allocObjects, float64(len(tracedOps))), fmt.Sprintf("%.0f heap objects / %d ops", a.rt.allocObjects, len(tracedOps)))
	put("go.gc_cpu_fraction", ratio(a.rt.gcCPU, a.rt.totalCPU), fmt.Sprintf("%.3f GC cpu-s / %.3f total cpu-s", a.rt.gcCPU, a.rt.totalCPU))
	put("go.goroutines_peak", float64(a.gPeak), "sampled at op boundaries")

	units := map[string]string{}
	for _, u := range perLayerUnits {
		units[u.name] = u.unit
	}
	for i := range out {
		out[i].unit = units[out[i].name]
	}
	return out
}

// modeRate is the throughput (MB/s) of the traced or untraced ops,
// over their summed latencies.
func modeRate(ops []op, traced bool) (float64, int) {
	var b int64
	var t time.Duration
	n := 0
	for _, o := range ops {
		if o.traced == traced {
			b += o.bytes
			t += o.lat
			n++
		}
	}
	return ratio(float64(b)/1e6, t.Seconds()), n
}

func printLayers(w io.Writer, ls []layerMetric) {
	fmt.Fprintln(w, "per-layer metrics (traced blocks of the run):")
	for _, l := range ls {
		fmt.Fprintf(w, "  %-30s %12.5g %-6s %s\n", l.name, l.value, l.unit, l.base)
	}
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
