// Command perfbench is the repository's benchmark. It runs one of three
// seeded closed-loop workloads against the drxmp stack, driven only
// through its public entry points, checks every byte read against a
// model, and prints its metrics as one JSON line:
//
//	perfbench --workload grow-append|zone-reread|serve-mixed \
//	          --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates
// untraced and traced blocks, records spans around the calls into each
// layer in the traced ones and reports the per-layer metrics instead. --runs N repeats a workload
// over N consecutive seeds in child processes and prints each metric's
// median and quartiles. run.sh builds and runs it; see README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is one run's inputs.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // measured phase
	trace    bool
	tiny     bool   // smoke-test sizes (package tests)
	workDir  string // spill files
	// corrupt, when set, mutates every buffer a timed read returned
	// before it is checked (the oracle's negative test).
	corrupt func([]byte)
}

// subSeed derives the seed of one independent random stream of a run
// (popularity order, warm-up draws, one client, one epoch) from the
// run's seed.
func subSeed(seed, stream int64) int64 { return seed*1_000_003 + stream }

// runOut is what a workload hands back: its samples and tallies.
type runOut struct {
	setups    []time.Duration
	ops       []op // measured-phase operations
	attempted int64
	failed    int64
	acc       acc // counter deltas over the traced blocks (trace runs)
	spans     []span
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*runOut, error){
	"grow-append": func(cfg runConfig) (*runOut, error) {
		return runCollective(cfg, newGrow(growSizes(cfg.tiny), cfg.seed), true, setupRepeats)
	},
	"zone-reread": func(cfg runConfig) (*runOut, error) {
		return runCollective(cfg, newZone(zoneSizes(cfg.tiny), cfg), false, cheapSetupRepeats)
	},
	"serve-mixed": runServeMixed,
}

// endToEndUnits lists the end-to-end metrics of an untraced run.
// BENCHMARK.json's end_to_end list matches it (the package test checks).
var endToEndUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_mbps", "MB/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cpu_ms_per_mb", "ms/MB"},
	{"peak_rss_mb", "MiB"},
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "grow-append, zone-reread or serve-mixed")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 10, "length of the measured phase")
	trace := fl.Int("trace", 0, "1 records spans and reports per-layer metrics")
	outDir := fl.String("out", ".bench_build", "directory for spill files and span dumps")
	runs := fl.Int("runs", 0, "repeat over this many consecutive seeds and summarise")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload grow-append|zone-reread|serve-mixed, --seconds > 0, --trace 0|1\n")
		return 2
	}
	if *runs > 0 {
		return summarise(args, *seed, *runs, stdout, stderr)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workDir: filepath.Join(*outDir, fmt.Sprintf("work-%d", os.Getpid()))}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(cfg.workDir)
	// A wedged run must still exit: after 170 s, or three measured
	// phases plus a minute when that is longer.
	limit := time.Duration(max(170, 3*(*seconds)+60) * float64(time.Second))
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "perfbench: run exceeded %v\n", limit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	fmt.Fprintln(stdout, provenance(cfg))
	res, err := run(cfg, *outDir, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed or read wrong bytes\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// provenance is the JSON line printed before every result.
func provenance(cfg runConfig) string {
	rev, dirty := os.Getenv("PERFBENCH_REV"), os.Getenv("PERFBENCH_DIRTY")
	if rev == "" {
		rev, dirty = "unknown", "unknown"
	}
	b, _ := json.Marshal(map[string]any{"provenance": map[string]any{
		"rev": rev, "dirty": dirty, "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc": runtime.NumCPU(), "workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"trace": cfg.trace,
	}})
	return string(b)
}

// run executes one workload and builds its result line, printing the
// human-readable detail to w.
func run(cfg runConfig, outDir string, w io.Writer) (result, error) {
	o, err := workloads[cfg.workload](cfg)
	if err != nil {
		return result{}, err
	}
	if len(o.ops) == 0 {
		return result{}, fmt.Errorf("no operation completed")
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed}
	if !cfg.trace {
		res.Metrics = endToEnd(o)
		return res, nil
	}
	ls := layers(o)
	printLayers(w, ls)
	fmt.Fprintln(w, "spans (traced blocks):")
	spanTable(w, o.spans)
	dir := filepath.Join(outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := dumpSpans(path, o.spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "span dump: %s (%d spans)\n", path, len(o.spans))
	res.Metrics = map[string]metric{}
	for _, l := range ls {
		res.Metrics[l.name] = metric{Value: finite(l.value), Unit: l.unit}
	}
	return res, nil
}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(o *runOut) map[string]metric {
	var setups []float64
	for _, d := range o.setups {
		setups = append(setups, d.Seconds())
	}
	mbps, cpu, rss := windowRates(o.ops)
	lat := latencies(o.ops, func(op) bool { return true })
	v := map[string]float64{
		"setup_s":         median(setups),
		"throughput_mbps": median(mbps),
		"op_p50_ms":       pct(lat, .5),
		"op_p90_ms":       pct(lat, .9),
		"cpu_ms_per_mb":   median(cpu),
		"peak_rss_mb":     median(rss),
	}
	m := map[string]metric{}
	for _, u := range endToEndUnits {
		m[u.name] = metric{Value: finite(v[u.name]), Unit: u.unit}
	}
	return m
}

// summarise runs the workload n times over consecutive seeds in child
// processes and prints each metric's median, quartiles and spread
// (Q3-Q1 over the median).
func summarise(args []string, seed int64, n int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var base []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		name, _, hasVal := strings.Cut(a, "=")
		if name == "runs" || name == "seed" {
			if !hasVal {
				i++
			}
			continue
		}
		base = append(base, args[i])
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	var prov string
	for k := 0; k < n; k++ {
		cmd := exec.Command(exe, append(append([]string(nil), base...), "--seed", strconv.FormatInt(seed+int64(k), 10))...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: seed %d: %v\n", seed+int64(k), err)
			return 1
		}
		lines := firstLast(out.Bytes())
		if prov == "" && len(lines) > 0 {
			prov = lines[0]
		}
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			fmt.Fprintf(stderr, "perfbench: seed %d: %v\n", seed+int64(k), err)
			return 1
		}
		for name, m := range r.Metrics {
			vals[name] = append(vals[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(stderr, "seed %d done\n", seed+int64(k))
	}
	fmt.Fprintln(stdout, prov)
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	type row struct {
		Median, Q1, Q3, Spread float64
		Unit                   string
		Runs                   int
	}
	summary := map[string]row{}
	fmt.Fprintf(stdout, "%-30s %12s %12s %12s %8s  %s\n", "metric", "median", "q1", "q3", "spread", "unit")
	for _, name := range names {
		q1, q2, q3 := quartiles(vals[name])
		r := row{Median: q2, Q1: q1, Q3: q3, Spread: ratio(q3-q1, q2), Unit: units[name], Runs: len(vals[name])}
		summary[name] = r
		fmt.Fprintf(stdout, "%-30s %12.5g %12.5g %12.5g %8.4f  %s\n", name, q2, q1, q3, r.Spread, r.Unit)
	}
	b, _ := json.Marshal(map[string]any{"seeds": []int64{seed, seed + int64(n) - 1}, "summary": summary})
	fmt.Fprintln(stdout, string(b))
	return 0
}

// firstLast returns the first and last non-empty lines of out.
func firstLast(out []byte) []string {
	var first, last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			if first == "" {
				first = t
			}
			last = t
		}
	}
	return []string{first, last}
}
