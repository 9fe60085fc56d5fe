// Command perfbench is pgarm's end-to-end benchmark. It runs one named
// workload from a seed, checks the program's output against a reference
// computed by a different code path, and prints its metrics as the last line
// of standard output:
//
//	perfbench --workload batch-candidate --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (timings taken with
// tracing off); with --trace 1 the run records spans around every call it
// makes into pgarm and prints the per-layer metrics instead. See README.md
// for the workloads, the metrics and which layer moves which metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Load is sized for a 2-core host: 2 nodes × 1 scan worker over the
// in-process channel fabric, and one closed-loop HTTP client, so the figures
// measure pgarm rather than the scheduler.
const (
	benchNodes   = 2
	benchWorkers = 1
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCtx is what every workload receives: its inputs' seed, the measuring
// budget, the scratch directory and the (possibly nil) tracer.
type runCtx struct {
	seed    int64
	seconds time.Duration
	dir     string  // fresh per run, removed at exit
	tr      *tracer // nil unless --trace 1
	ops     ops
	e2e     map[string]metric
	layer   map[string]metric
	info    map[string]any // extra facts printed with the host line
}

// ops counts attempted and failed operations — jobs, checkpoints, requests
// and correctness checks — which make up failed_frac.
type ops struct {
	attempted, failed int64
}

// check records one correctness check; a failed check is reported on stderr
// and counted, never fatal.
func (o *ops) check(ok bool, format string, args ...any) bool {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	return ok
}

// op records one operation's outcome.
func (o *ops) op(err error, what string) bool {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		return false
	}
	return true
}

func (c *runCtx) setE2E(name, unit string, v float64)   { c.e2e[name] = metric{v, unit} }
func (c *runCtx) setLayer(name, unit string, v float64) { c.layer[name] = metric{v, unit} }

var workloads = map[string]func(*runCtx) error{
	"batch-candidate": runBatchCandidate,
	"batch-fpg":       runBatchFPG,
	"stream-serve":    runStreamServe,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: batch-candidate, batch-fpg or stream-serve")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 20, "how long the measured phase runs")
		trace    = flag.Int("trace", 0, "1 records spans and prints per-layer metrics instead of end-to-end ones")
		workdir  = flag.String("workdir", ".bench_build", "directory for scratch files and trace output")
		defPath  = flag.String("def", "BENCHMARK.json", "benchmark definition naming the metrics to report")
	)
	flag.Parse()
	fn := workloads[*workload]
	if fn == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	def, err := loadDef(*defPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-"+*workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	c := &runCtx{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		dir:     dir,
		e2e:     map[string]metric{},
		layer:   map[string]metric{},
		info:    map[string]any{},
	}
	runID := fmt.Sprintf("%s-seed%d-%d", *workload, *seed, time.Now().UnixNano())
	if *trace == 1 {
		c.tr = newTracer(runID)
		// A layer a workload leaves idle reads 0 (README.md maps each
		// metric to its workloads).
		for _, l := range def.PerLayer {
			c.setLayer(l.Name, l.Unit, 0)
		}
	}
	host := hostFacts(*workload, *seed)
	if err := fn(c); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}

	out := result{
		Correct:   c.ops.failed == 0,
		Attempted: c.ops.attempted,
		Failed:    c.ops.failed,
		Metrics:   c.e2e,
	}
	for k, v := range c.info {
		host[k] = v
	}
	host["failed_frac"] = float64(c.ops.failed) / float64(c.ops.attempted)
	if c.tr != nil {
		_, unattributed := c.tr.summary()
		c.setLayer("unattributed_s", "s", unattributed.Seconds())
		out.Metrics = c.layer
		path := filepath.Join(*workdir, "traces", runID+".json")
		if err := c.tr.writeFile(path, host); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
			return 1
		}
		fmt.Printf("trace: %s\n", path)
	}
	want := def.EndToEnd
	if c.tr != nil {
		want = def.PerLayer
	}
	if err := conform(out.Metrics, want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *defPath, err)
		return 1
	}
	hb, _ := json.Marshal(host) // numbers and strings only; cannot fail
	fmt.Printf("host: %s\n", hb)
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// benchDef is the part of BENCHMARK.json the benchmark reads: the metrics
// a run must report, with their units.
type benchDef struct {
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDef(path string) (*benchDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDef
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// conform requires got to hold exactly the metrics of want, in want's units.
func conform(got map[string]metric, want []declared) error {
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			return fmt.Errorf("metric %s not measured", w.Name)
		}
		if m.Unit != w.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", w.Name, m.Unit, w.Unit)
		}
	}
	if len(got) != len(want) {
		var extra []string
		for name := range got {
			if !slices.ContainsFunc(want, func(w declared) bool { return w.Name == name }) {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("metrics %v not declared", extra)
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS counter (VmHWM), so that peakRSSMB reads the peak of what runs
// next. Where the reset is unsupported, VmHWM keeps the process peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads the peak resident set since the last reset, in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// median returns the median of vs (0 when empty); vs is sorted in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	h := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[h]
	}
	return (vs[h-1] + vs[h]) / 2
}

// quantile returns the nearest-rank q-quantile of vs, sorting it in place.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	i := int(q*float64(len(vs))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(vs) {
		i = len(vs) - 1
	}
	return vs[i]
}
