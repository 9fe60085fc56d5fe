package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/model"
	"pgarm/internal/rules"
	"pgarm/internal/serve"
	"pgarm/internal/stream"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// stream-serve: a warm FUP follower and a rule server running together.
// The prefix and the cold first checkpoint are set-up; the measured phase
// appends one delta per tick, each taken through the whole write path while
// one closed-loop client queries the server.
const (
	streamPrefixTxns = 8000
	streamDeltaTxns  = 400
	streamMinSup     = 0.01
	streamMinConf    = 0.3
	// streamTick paces the deltas so every run does the same write work
	// whatever the program's speed; a checkpoint that overruns its tick
	// starts the next one late rather than skipping it.
	streamTick = 2500 * time.Millisecond
	// streamSetups is how many times set-up runs (setup_s is the median).
	streamSetups = 3
	// warmUpRequests are posted unmeasured after the server starts.
	warmUpRequests = 200
)

// follower is the write side: the log, its reader and the carried state.
type follower struct {
	tax    *taxonomy.Taxonomy
	name   string
	dir    string
	log    *stream.Log
	reader *stream.Reader
	prior  *model.MiningState
	mined  stream.Offset
	holder *serve.Holder
	gen    int // snapshots written
}

// ckpt is one checkpoint's measured phases and outputs.
type ckpt struct {
	fresh, batch, appendT, mine, derive, write, index time.Duration
	traced                                            bool
	stats                                             *stream.CheckpointStats
	probes                                            int64
	large                                             [][]itemset.Counted
	rules                                             []rules.Rule
	path                                              string
	ix                                                *serve.Index
	gen                                               int64
}

// checkpoint appends delta (fsync'd), tails the log from the last mined
// offset, runs one FUP checkpoint, derives rules, writes the snapshot
// durably and swaps its index into the server. delta may be empty for the
// cold first checkpoint, whose input is already in the log.
func (f *follower) checkpoint(tr *tracer, delta []txn.Transaction) (*ckpt, error) {
	ck := &ckpt{}
	start := time.Now()
	root := tr.begin("writer", "checkpoint", -1)
	defer tr.end(root)
	if len(delta) > 0 {
		sp := tr.begin("writer", "stream.Append", root)
		err := f.log.Append(delta)
		if err == nil {
			err = f.log.Sync()
		}
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	ck.appendT = time.Since(start)

	readStart := time.Now()
	sp := tr.begin("writer", "stream.ReadFrom", root)
	var pending []txn.Transaction
	off, err := f.reader.ReadFrom(f.mined, func(t txn.Transaction) error {
		pending = append(pending, txn.Transaction{TID: t.TID, Items: item.Clone(t.Items)})
		return nil
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("writer", "stream.IncrementalMine", root)
	t := time.Now()
	res, state, stats, err := stream.IncrementalMine(f.tax, f.prior, f.reader.Prefix(f.mined), txn.NewDB(pending),
		stream.MineConfig{MinSupport: streamMinSup, Workers: benchWorkers})
	ck.mine = time.Since(t)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	state.LogSeg, state.LogByte = off.Seg, off.Byte
	ck.stats, ck.probes = stats, res.Probes

	sp = tr.begin("writer", "rules.Derive", root)
	t = time.Now()
	rs, err := rules.Derive(f.tax, res.All(), res.SupportIndex(), rules.Config{MinConfidence: streamMinConf, NumTxns: res.NumTxns})
	ck.derive = time.Since(t)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	m := &model.Model{
		Meta: model.Meta{
			Dataset:       f.name,
			Algorithm:     "Cumulate-FUP",
			Tool:          model.ToolVersion,
			NumTxns:       int64(res.NumTxns),
			MinSupport:    streamMinSup,
			MinConfidence: streamMinConf,
			CreatedUnix:   time.Now().Unix(),
		},
		Taxonomy: f.tax,
		Large:    res.Large,
		Rules:    rs,
		State:    state,
	}
	// Each generation keeps its own file so every snapshot can be read back
	// after the measured phase; each is still written by fsync and rename.
	ck.path = filepath.Join(f.dir, fmt.Sprintf("model.g%04d.pgarm", f.gen))
	sp = tr.begin("writer", "model.WriteFile", root)
	t = time.Now()
	err = model.WriteFile(ck.path, m)
	ck.write = time.Since(t)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	f.gen++
	ck.batch = time.Since(readStart)

	sp = tr.begin("writer", "serve.NewIndex", root)
	t = time.Now()
	ck.ix, err = serve.NewIndex(m, fmt.Sprintf("g%d", f.gen))
	ck.index = time.Since(t)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("writer", "Holder.Swap", root)
	f.holder.Swap(ck.ix)
	ck.gen = f.holder.Generation()
	tr.end(sp)
	ck.fresh = time.Since(start)
	// Keep what the checks need, not the carried state, which only the next
	// checkpoint reads.
	ck.large, ck.rules = m.Large, m.Rules
	f.prior, f.mined = state, off
	return ck, nil
}

// streamInput is the generated transaction sequence: prefix, then deltas.
type streamInput struct {
	tax  *taxonomy.Taxonomy
	name string
	txns []txn.Transaction
}

// setupStream opens a fresh log, appends the prefix, runs the cold first
// checkpoint and starts the server, warmed up.
func setupStream(in *streamInput, mix *basketMix, dir string) (*follower, *ruleServer, *ckpt, error) {
	logDir := filepath.Join(dir, "log")
	l, err := stream.OpenLog(logDir, stream.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	f := &follower{tax: in.tax, name: in.name, dir: dir, log: l, holder: serve.NewHolder(nil)}
	fail := func(err error) (*follower, *ruleServer, *ckpt, error) {
		l.Close()
		return nil, nil, nil, err
	}
	if err := l.Append(in.txns[:streamPrefixTxns]); err != nil {
		return fail(err)
	}
	if err := l.Sync(); err != nil {
		return fail(err)
	}
	if f.reader, err = stream.OpenReader(logDir); err != nil {
		return fail(err)
	}
	cold, err := f.checkpoint(nil, nil)
	if err != nil {
		return fail(err)
	}
	rs, err := startServer(f.holder)
	if err != nil {
		return fail(err)
	}
	if err := warmUp(rs.url, mix, warmUpRequests); err != nil {
		rs.stop()
		return fail(err)
	}
	return f, rs, cold, nil
}

func runStreamServe(c *runCtx) error {
	deltas := max(2, int(c.seconds/streamTick))
	// Generation runs once; its time is part of every set-up.
	t := time.Now()
	tax, name, txns, err := shuffledR30F5(c.seed, streamPrefixTxns+deltas*streamDeltaTxns)
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	in := &streamInput{tax: tax, name: name, txns: txns}
	mix := newBasketMix(c.seed, in.txns)
	genTime := time.Since(t)
	var setupS []float64
	var f *follower
	var rs *ruleServer
	var cold *ckpt
	for i := 0; i < streamSetups; i++ {
		if f != nil {
			f.log.Close()
			if err := rs.stop(); err != nil {
				return err
			}
		}
		dir := filepath.Join(c.dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		t := time.Now()
		if f, rs, cold, err = setupStream(in, mix, dir); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, (genTime + time.Since(t)).Seconds())
	}
	defer f.log.Close()
	c.setE2E("setup_s", "s", median(setupS))

	var (
		ckpts    []*ckpt
		ckErrs   []error
		wg       sync.WaitGroup
		finished = make(chan struct{})
	)
	// The timed phase starts from the same heap and resident set every run;
	// peak_rss_mb is its peak, not the set-ups'.
	resetPeakRSS()
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(finished)
		for i := 0; i < deltas; i++ {
			if wait := time.Until(start.Add(time.Duration(i) * streamTick)); wait > 0 {
				w0 := time.Now()
				time.Sleep(wait)
				c.tr.record("writer", "idle", -1, w0, time.Now())
			}
			lo := streamPrefixTxns + i*streamDeltaTxns
			// A traced run alternates traced and untraced checkpoints so the
			// tracing overhead is measured within the run.
			tr := c.tr
			if i%2 == 0 {
				tr = nil
			}
			t0 := time.Now()
			ck, err := f.checkpoint(tr, in.txns[lo:lo+streamDeltaTxns])
			if tr == nil {
				c.tr.record("writer", "checkpoint-untraced", -1, t0, time.Now())
			}
			ckErrs = append(ckErrs, err)
			if err == nil {
				ck.traced = tr != nil
				ckpts = append(ckpts, ck)
			}
		}
		c.tr.measured("writer", start, time.Now())
	}()
	// The client's windows are the writer's ticks, each holding one
	// checkpoint's contention.
	cs := &clientStats{}
	cs.run(c.tr, rs.url, mix, func(_ int, at time.Duration) int { return int(at / streamTick) }, func(n int) bool {
		select {
		case <-finished:
			return n >= minRequests
		default:
			return false
		}
	})
	wg.Wait()
	peak := peakRSSMB()
	if err := rs.stop(); err != nil {
		return err
	}
	for _, err := range ckErrs {
		c.ops.op(err, "checkpoint")
	}
	if len(ckpts) == 0 {
		return fmt.Errorf("every checkpoint failed")
	}

	byGen := map[int64]*serve.Index{cold.gen: cold.ix}
	for _, ck := range ckpts {
		byGen[ck.gen] = ck.ix
	}
	checkSamples(c, cs, byGen)
	checkSnapshots(c, append([]*ckpt{cold}, ckpts...))
	checkFinal(c, f, ckpts[len(ckpts)-1].large)

	var fresh, batch []float64
	for _, ck := range ckpts {
		fresh = append(fresh, float64(ck.fresh)/1e6)
		batch = append(batch, ck.batch.Seconds())
	}
	c.setE2E("freshness_p50_ms", "ms", median(fresh))
	c.setE2E("batch_s", "s", median(batch))
	c.setE2E("peak_rss_mb", "MB", peak)
	cs.report(c)
	c.info["checkpoints"] = len(ckpts)
	if c.tr != nil {
		streamLayers(c, ckpts)
	}
	return nil
}

// checkSnapshots reads every snapshot back — NewReader verifies its
// checksum — and requires the decoded itemsets and rules to equal what was
// served.
func checkSnapshots(c *runCtx, ckpts []*ckpt) {
	for _, ck := range ckpts {
		r, err := model.OpenReader(ck.path)
		if !c.ops.check(err == nil, "snapshot %s: %v", ck.path, err) {
			continue
		}
		m, err := r.Model()
		c.ops.check(err == nil && equalLevels(m.Large, ck.large) && equalRules(m.Rules, ck.rules),
			"snapshot %s does not read back as written (%v)", ck.path, err)
	}
}

func equalRules(a, b []rules.Rule) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !item.Equal(x.Antecedent, y.Antecedent) || !item.Equal(x.Consequent, y.Consequent) ||
			x.Support != y.Support || x.Confidence != y.Confidence {
			return false
		}
	}
	return true
}

// checkFinal requires the last model's itemsets to equal FP-Growth's over
// the whole log, read back from disk.
func checkFinal(c *runCtx, f *follower, last [][]itemset.Counted) {
	var all []txn.Transaction
	_, err := f.reader.ReadFrom(stream.Offset{}, func(t txn.Transaction) error {
		all = append(all, txn.Transaction{TID: t.TID, Items: item.Clone(t.Items)})
		return nil
	})
	if !c.ops.op(err, "read log") {
		return
	}
	ref, err := referenceFPG(f.tax, all, streamMinSup)
	if !c.ops.op(err, "reference fpg.Mine") {
		return
	}
	c.ops.check(equalLevels(last, ref), "final FUP model differs from fpg.Mine over the whole log")
}

// streamLayers reports the per-layer metrics of the traced checkpoints.
func streamLayers(c *runCtx, all []*ckpt) {
	var traced, untraced []*ckpt
	for _, ck := range all {
		if ck.traced {
			traced = append(traced, ck)
		} else {
			untraced = append(untraced, ck)
		}
	}
	med := func(cks []*ckpt, f func(*ckpt) float64) float64 {
		var vs []float64
		for _, ck := range cks {
			vs = append(vs, f(ck))
		}
		return median(vs)
	}
	sec := func(f func(*ckpt) time.Duration) float64 {
		return med(traced, func(ck *ckpt) float64 { return f(ck).Seconds() })
	}
	fresh := func(ck *ckpt) float64 { return ck.fresh.Seconds() }
	if len(traced) == 0 {
		return
	}
	var cands, recounted int
	for _, ck := range traced {
		cands += ck.stats.Candidates
		recounted += ck.stats.Recounted
	}
	last := traced[len(traced)-1]
	c.setLayer("stream.append_s", "s", sec(func(ck *ckpt) time.Duration { return ck.appendT }))
	c.setLayer("stream.checkpoint_s", "s", sec(func(ck *ckpt) time.Duration { return ck.mine }))
	c.setLayer("stream.recount_frac", "frac", ratio(float64(recounted), float64(cands)))
	c.setLayer("serve.index_build_s", "s", sec(func(ck *ckpt) time.Duration { return ck.index }))
	c.setLayer("rules.derive_s", "s", sec(func(ck *ckpt) time.Duration { return ck.derive }))
	c.setLayer("rules.count", "count", float64(len(last.rules)))
	c.setLayer("model.write_s", "s", sec(func(ck *ckpt) time.Duration { return ck.write }))
	if fi, err := os.Stat(last.path); err == nil {
		c.setLayer("model.bytes", "bytes", float64(fi.Size()))
	}
	c.setLayer("core.probes", "count", med(traced, func(ck *ckpt) float64 { return float64(ck.probes) }))
	c.setLayer("core.candidates", "count", med(traced, func(ck *ckpt) float64 { return float64(ck.stats.Candidates) }))
	c.setLayer("trace_overhead_frac", "frac", med(traced, fresh)/med(untraced, fresh)-1)
}
