package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pgarm/internal/core"
	"pgarm/internal/driver"
	"pgarm/internal/fpg"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/model"
	"pgarm/internal/obs"
	"pgarm/internal/rules"
	"pgarm/internal/serve"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// batchSpec is one batch workload: generate R30F5 into per-node partition
// files, then repeatedly open them, mine, derive rules and write a durable
// snapshot.
type batchSpec struct {
	txns int // transactions mined per job
	// nominalJob is about one job's time on a 2-core host; the run's job
	// count is its length divided by this.
	nominalJob time.Duration
	columnar   bool // columnar (PGTC) partitions instead of row (PGTX)
	minSup     float64
	minConf    float64
	algorithm  string
	requests   int // served after the last job; a multiple of minRequests
	// mine runs the engine over the opened partitions; tr is non-nil only
	// in traced jobs.
	mine func(tax *taxonomy.Taxonomy, parts []txn.Scanner, minSup float64, tr *obs.Tracer) (mineResult, error)
	// check compares a job's itemsets with the workload's reference.
	check func(c *runCtx, in *batchInput, large [][]itemset.Counted)
}

// mined is what both engines' results offer to rule derivation.
type mined interface {
	All() []itemset.Counted
	SupportIndex() map[string]int64
}

// mineResult is one engine run's output.
type mineResult struct {
	mined
	large [][]itemset.Counted
	stats *metrics.RunStats
}

// batch-candidate is the paper's algorithm on its home ground: H-HPGM-FGD
// at 1% support over columnar partitions, with a 4 MB per-node budget so
// FGD both duplicates hot candidates and root-hash-partitions the rest.
var batchCandidate = batchSpec{
	txns:       16000,
	nominalJob: 7 * time.Second,
	columnar:   true,
	minSup:     0.01,
	minConf:    0.5,
	algorithm:  string(core.HHPGMFGD),
	requests:   20000,
	mine: func(tax *taxonomy.Taxonomy, parts []txn.Scanner, minSup float64, _ *obs.Tracer) (mineResult, error) {
		res, err := core.Mine(tax, parts, core.Config{
			Algorithm:    core.HHPGMFGD,
			MinSupport:   minSup,
			MemoryBudget: 4 << 20,
			Workers:      benchWorkers,
			Fabric:       core.FabricChan,
		})
		if err != nil {
			return mineResult{}, err
		}
		return mineResult{res, res.Large, res.Stats}, nil
	},
	check: checkAgainstFPG,
}

// batch-fpg is the low-support regime where candidate engines explode:
// FP-Growth at 0.2% over row partitions, dominated by pattern growth,
// conditional-base shipping and rule derivation.
var batchFPG = batchSpec{
	txns:       32000,
	nominalJob: 7 * time.Second,
	minSup:     0.002,
	minConf:    0.5,
	algorithm:  fpg.Engine,
	requests:   minRequests,
	mine: func(tax *taxonomy.Taxonomy, parts []txn.Scanner, minSup float64, tr *obs.Tracer) (mineResult, error) {
		res, err := fpg.Mine(tax, parts, fpg.Config{
			MinSupport: minSup,
			Workers:    benchWorkers,
			Fabric:     fpg.FabricChan,
			Tracer:     tr,
		})
		if err != nil {
			return mineResult{}, err
		}
		return mineResult{res, res.Large, res.Stats}, nil
	},
	check: checkByTidsets,
}

func runBatchCandidate(c *runCtx) error { return runBatch(c, batchCandidate) }
func runBatchFPG(c *runCtx) error       { return runBatch(c, batchFPG) }

// batchInput is one set-up's output: the partition files on disk plus the
// generated transactions kept in memory for the reference checks.
type batchInput struct {
	spec  batchSpec
	tax   *taxonomy.Taxonomy
	paths []string
	txns  []txn.Transaction
	name  string
	// ref is the reference the checks compare with, computed once per run
	// outside the timed jobs.
	ref [][]itemset.Counted
}

// setupBatch generates the dataset and writes one partition file per node,
// round-robin like pgarm-gen.
func setupBatch(c *runCtx, spec batchSpec, dir string) (*batchInput, error) {
	tax, name, txns, err := shuffledR30F5(c.seed, spec.txns)
	if err != nil {
		return nil, err
	}
	in := &batchInput{spec: spec, tax: tax, name: name, txns: txns}
	type partWriter interface {
		Append(txn.Transaction) error
		Close() error
	}
	for i := 0; i < benchNodes; i++ {
		path := filepath.Join(dir, fmt.Sprintf("part.n%02d.ptx", i))
		var w partWriter
		if spec.columnar {
			w, err = txn.NewColumnarWriter(path, tax, txn.DefaultTxnsPerBlock)
		} else {
			w, err = txn.NewRowWriter(path)
		}
		if err != nil {
			return nil, err
		}
		for j := i; j < len(txns) && err == nil; j += benchNodes {
			err = w.Append(txns[j])
		}
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		in.paths = append(in.paths, path)
	}
	return in, nil
}

// jobTimes are one batch job's measured phases.
type jobTimes struct {
	batch, fresh, derive, write, index time.Duration
	rules                              int
	modelBytes                         int64
	stats                              *metrics.RunStats
	roll                               []obs.Rollup
}

// runJob runs one batch job — open the partitions, mine, derive rules,
// write the snapshot durably, then build the serving index and swap it in —
// and returns its itemsets. traced jobs record spans and hand the engine a
// tracer of its own.
func runJob(c *runCtx, in *batchInput, holder *serve.Holder, snap string, traced bool) ([][]itemset.Counted, *serve.Index, jobTimes, error) {
	var jt jobTimes
	var tr *tracer
	var otr *obs.Tracer
	if traced {
		tr, otr = c.tr, obs.NewTracer()
	}
	start := time.Now()
	job := tr.begin("main", "job", -1)
	defer tr.end(job)
	sp := tr.begin("main", "txn.Open", job)
	parts := make([]txn.Scanner, len(in.paths))
	for i, p := range in.paths {
		s, err := txn.Open(p)
		if err != nil {
			closeParts(parts)
			return nil, nil, jt, err
		}
		parts[i] = s
	}
	tr.end(sp)

	sp = tr.begin("main", "mine", job)
	res, err := in.spec.mine(in.tax, parts, in.spec.minSup, otr)
	tr.end(sp)
	closeParts(parts)
	if err != nil {
		return nil, nil, jt, err
	}
	jt.stats = res.stats
	jt.roll = otr.Rollups()

	sp = tr.begin("main", "rules.Derive", job)
	t := time.Now()
	rs, err := rules.Derive(in.tax, res.All(), res.SupportIndex(), rules.Config{MinConfidence: in.spec.minConf, NumTxns: len(in.txns)})
	jt.derive = time.Since(t)
	tr.end(sp)
	if err != nil {
		return nil, nil, jt, err
	}
	jt.rules = len(rs)

	m := &model.Model{
		Meta: model.Meta{
			Dataset:       in.name,
			Algorithm:     in.spec.algorithm,
			Tool:          model.ToolVersion,
			NumTxns:       int64(len(in.txns)),
			MinSupport:    in.spec.minSup,
			MinConfidence: in.spec.minConf,
			CreatedUnix:   time.Now().Unix(),
		},
		Taxonomy: in.tax,
		Large:    res.large,
		Rules:    rs,
	}
	sp = tr.begin("main", "model.WriteFile", job)
	t = time.Now()
	err = model.WriteFile(snap, m)
	jt.write = time.Since(t)
	tr.end(sp)
	if err != nil {
		return nil, nil, jt, err
	}
	jt.batch = time.Since(start)

	sp = tr.begin("main", "serve.NewIndex", job)
	t = time.Now()
	ix, err := serve.NewIndex(m, in.spec.algorithm)
	jt.index = time.Since(t)
	tr.end(sp)
	if err != nil {
		return nil, nil, jt, err
	}
	sp = tr.begin("main", "Holder.Swap", job)
	holder.Swap(ix)
	tr.end(sp)
	jt.fresh = time.Since(start)
	tr.measured("main", start, time.Now())
	if fi, err := os.Stat(snap); err == nil {
		jt.modelBytes = fi.Size()
	}
	return res.large, ix, jt, nil
}

func closeParts(parts []txn.Scanner) {
	for _, p := range parts {
		if cf, ok := p.(*txn.ColumnarFile); ok {
			cf.Close()
		}
	}
}

// runBatch sets the workload up several times (setup_s is their median),
// then runs a fixed number of measured jobs, checking each job's output.
// The server, holding the last job's snapshot with its cache cold as after
// any swap, then answers spec.requests requests with no job running, and
// the sampled responses are checked.
func runBatch(c *runCtx, spec batchSpec) error {
	// A batch set-up takes about 0.1 s, so a one-off stall of the host moves
	// it by a large share; the median of several is steadier.
	const setups = 7
	var setupS []float64
	var in *batchInput
	for i := 0; i < setups; i++ {
		dir := filepath.Join(c.dir, fmt.Sprintf("setup%d", i))
		t := time.Now()
		var err error
		if err = os.MkdirAll(dir, 0o755); err == nil {
			in, err = setupBatch(c, spec, dir)
		}
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	c.setE2E("setup_s", "s", median(setupS))
	mix := newBasketMix(c.seed, in.txns)
	holder := serve.NewHolder(nil)
	rs, err := startServer(holder)
	if err != nil {
		return err
	}
	defer rs.stop()

	// The job count depends on the run length alone, never on how fast the
	// jobs go, so every build under test does the same work. A traced run
	// alternates untraced and traced jobs, measuring the tracing overhead
	// within the run.
	n := max(3, int(c.seconds/spec.nominalJob))
	if c.tr != nil {
		n = max(n, 4)
	}
	snap := filepath.Join(c.dir, "model.pgarm")
	var jobs []jobTimes
	var untraced []float64 // batch_s of the untraced jobs of a traced run
	var peaks []float64
	var last *serve.Index
	for i := 0; i < n; i++ {
		traced := c.tr != nil && i%2 == 1
		// Every job starts from the same heap and resident set, whatever
		// the previous job and check left behind.
		resetPeakRSS()
		large, ix, jt, err := runJob(c, in, holder, snap, traced)
		if !c.ops.op(err, "batch job") {
			continue
		}
		peaks = append(peaks, peakRSSMB())
		spec.check(c, in, large)
		if c.tr != nil && !traced {
			untraced = append(untraced, jt.batch.Seconds())
		} else {
			jobs = append(jobs, jt)
		}
		last = ix
	}
	if len(jobs) == 0 {
		return fmt.Errorf("every batch job failed")
	}

	runtime.GC()
	cs := &clientStats{}
	cs.run(c.tr, rs.url, mix, func(i int, _ time.Duration) int { return i / minRequests },
		func(n int) bool { return n >= spec.requests })
	checkSamples(c, cs, map[int64]*serve.Index{holder.Generation(): last})

	var batchS, freshMS []float64
	for _, j := range jobs {
		batchS = append(batchS, j.batch.Seconds())
		freshMS = append(freshMS, float64(j.fresh)/1e6)
	}
	c.info["batch_s_samples"] = append([]float64(nil), batchS...)
	c.setE2E("batch_s", "s", median(batchS))
	c.setE2E("freshness_p50_ms", "ms", median(freshMS))
	c.setE2E("peak_rss_mb", "MB", median(peaks))
	cs.report(c)
	if c.tr != nil {
		batchLayers(c, jobs)
		if len(untraced) > 0 {
			c.setLayer("trace_overhead_frac", "frac", median(batchS)/median(untraced)-1)
		}
	}
	return nil
}

// batchLayers reports the per-layer metrics of the traced jobs: medians of
// their timings, and the counters of the first (they repeat exactly).
func batchLayers(c *runCtx, jobs []jobTimes) {
	med := func(f func(jobTimes) time.Duration) float64 {
		var vs []float64
		for _, j := range jobs {
			vs = append(vs, f(j).Seconds())
		}
		return median(vs)
	}
	span := func(j jobTimes, name string) time.Duration {
		for _, r := range j.roll {
			if r.Name == name {
				return time.Duration(r.MaxMS * 1e6) // slowest node
			}
		}
		return 0
	}
	setStatLayers(c, jobs[0].stats, func(f func(*metrics.RunStats) time.Duration) float64 {
		return med(func(j jobTimes) time.Duration { return f(j.stats) })
	})
	c.setLayer("fpg.build_forest_s", "s", med(func(j jobTimes) time.Duration { return span(j, "build-forest") }))
	c.setLayer("fpg.ship_bases_s", "s", med(func(j jobTimes) time.Duration { return span(j, "ship-bases") }))
	c.setLayer("fpg.grow_s", "s", med(func(j jobTimes) time.Duration { return span(j, "mine") }))
	c.setLayer("rules.derive_s", "s", med(func(j jobTimes) time.Duration { return j.derive }))
	c.setLayer("rules.count", "count", float64(jobs[0].rules))
	c.setLayer("model.write_s", "s", med(func(j jobTimes) time.Duration { return j.write }))
	c.setLayer("model.bytes", "bytes", float64(jobs[0].modelBytes))
	c.setLayer("serve.index_build_s", "s", med(func(j jobTimes) time.Duration { return j.index }))
}

// setStatLayers reports the driver, count-layer, cluster and storage
// metrics a run's metrics.RunStats exposes. med takes the median of a
// timing across the traced jobs; counters come from st.
func setStatLayers(c *runCtx, st *metrics.RunStats, med func(func(*metrics.RunStats) time.Duration) float64) {
	c.setLayer("driver.scan_s", "s", med(func(s *metrics.RunStats) time.Duration {
		var d time.Duration
		for _, p := range s.Passes {
			d += slowest(p, func(n metrics.NodeStats) time.Duration { return n.ScanTime })
		}
		return d
	}))
	c.setLayer("driver.barrier_wait_s", "s", med(func(s *metrics.RunStats) time.Duration {
		var d time.Duration
		for _, p := range s.Passes {
			d += slowest(p, func(n metrics.NodeStats) time.Duration { return n.BarrierWait })
		}
		return d
	}))
	c.setLayer("driver.generate_s", "s", med(func(s *metrics.RunStats) time.Duration {
		var d time.Duration
		for _, p := range s.Passes {
			d += p.Generate
		}
		return d
	}))
	c.setLayer("driver.pass1_s", "s", med(func(s *metrics.RunStats) time.Duration {
		if p := s.Pass(1); p != nil {
			return p.Elapsed
		}
		return 0
	}))
	var probes, incs, blocks, skipped, decoded, dataBytes, condBytes int64
	var cands, dups int
	for _, p := range st.Passes {
		if p.Pass >= 2 {
			cands += p.Candidates
			dups += p.Duplicated
		}
		for _, n := range p.Nodes {
			probes += n.Probes
			incs += n.Increments
			blocks += n.BlocksScanned
			skipped += n.BlocksSkipped
			decoded += n.BytesDecoded
			dataBytes += kindBytes(n, driver.KData)
			condBytes += kindBytes(n, driver.KCondBase)
		}
	}
	if st.Algorithm == fpg.Engine {
		cands, dups = 0, 0 // FPG reports suffix tasks, not candidates
	}
	c.setLayer("core.probes", "count", float64(probes))
	c.setLayer("core.increment_frac", "frac", ratio(float64(incs), float64(probes)))
	c.setLayer("core.candidates", "count", float64(cands))
	c.setLayer("core.duplicated_frac", "frac", ratio(float64(dups), float64(cands)))
	c.setLayer("cluster.data_bytes", "bytes", float64(dataBytes))
	c.setLayer("cluster.condbase_bytes", "bytes", float64(condBytes))
	c.setLayer("txn.bytes_decoded", "bytes", float64(decoded))
	c.setLayer("txn.blocks_skipped_frac", "frac", ratio(float64(skipped), float64(blocks+skipped)))
}

// kindBytes is the bytes node n sent as message kind k during the pass.
func kindBytes(n metrics.NodeStats, k uint8) int64 {
	if int(k) < len(n.ByKind) {
		return n.ByKind[k].BytesSent
	}
	return 0
}

func slowest(p metrics.PassStats, f func(metrics.NodeStats) time.Duration) time.Duration {
	var d time.Duration
	for _, n := range p.Nodes {
		d = max(d, f(n))
	}
	return d
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
