package main

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"

	"pgarm/internal/cumulate"
	"pgarm/internal/fpg"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/serve"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// referenceFPG mines txns with the FP-Growth engine — pattern growth, a
// different code path from every candidate-counting engine — over the same
// round-robin partitioning the benchmark uses.
func referenceFPG(tax *taxonomy.Taxonomy, txns []txn.Transaction, minSup float64) ([][]itemset.Counted, error) {
	parts := txn.Partition(txn.NewDB(txns), benchNodes)
	scanners := make([]txn.Scanner, len(parts))
	for i, p := range parts {
		scanners[i] = p
	}
	res, err := fpg.Mine(tax, scanners, fpg.Config{MinSupport: minSup, Workers: benchWorkers})
	if err != nil {
		return nil, err
	}
	return res.Large, nil
}

// checkAgainstFPG requires a job's itemsets to be identical — itemsets,
// counts and order — to FP-Growth's on the same data.
func checkAgainstFPG(c *runCtx, in *batchInput, large [][]itemset.Counted) {
	if in.ref == nil {
		ref, err := referenceFPG(in.tax, in.txns, in.spec.minSup)
		if !c.ops.op(err, "reference fpg.Mine") {
			return
		}
		in.ref = ref
	}
	c.ops.check(equalLevels(large, in.ref), "%s itemsets differ from fpg.Mine", in.spec.algorithm)
}

// equalLevels reports whether two level lists hold the same itemsets with
// the same counts in the same order.
func equalLevels(a, b [][]itemset.Counted) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if len(a[k]) != len(b[k]) {
			return false
		}
		for i := range a[k] {
			x, y := a[k][i], b[k][i]
			if x.Count != y.Count || !item.Equal(x.Items, y.Items) {
				return false
			}
		}
	}
	return true
}

// tidsets holds, for every item whose closure support reaches the
// threshold, the transactions whose ancestor closure contains it — as a
// bitset and as an ascending list — and each transaction's frequent closure.
type tidsets struct {
	minCount int64
	freq     []item.Item // frequent items, ascending
	bits     [][]uint64  // by item; nil for infrequent items
	lists    [][]int32
	closures [][]item.Item
}

// buildTidsets walks each transaction's ancestor closure through the
// taxonomy's parent links — not the miner's closure extension — and keeps
// the tidsets of frequent items.
func buildTidsets(tax *taxonomy.Taxonomy, txns []txn.Transaction, minSup float64) *tidsets {
	ts := &tidsets{
		minCount: cumulate.MinCount(minSup, len(txns)),
		bits:     make([][]uint64, tax.NumItems()),
		lists:    make([][]int32, tax.NumItems()),
		closures: make([][]item.Item, len(txns)),
	}
	seen := map[item.Item]bool{}
	counts := make([]int64, tax.NumItems())
	for i, t := range txns {
		clear(seen)
		for _, x := range t.Items {
			for a := x; a != item.None && !seen[a]; a = tax.Parent(a) {
				seen[a] = true
				counts[a]++
				ts.closures[i] = append(ts.closures[i], a)
			}
		}
	}
	words := (len(txns) + 63) / 64
	for x, n := range counts {
		if n >= ts.minCount {
			ts.freq = append(ts.freq, item.Item(x))
			ts.bits[x] = make([]uint64, words)
		}
	}
	for i, cl := range ts.closures {
		kept := cl[:0]
		for _, a := range cl {
			if b := ts.bits[a]; b != nil {
				b[i/64] |= 1 << (i % 64)
				ts.lists[a] = append(ts.lists[a], int32(i))
				kept = append(kept, a)
			}
		}
		slices.Sort(kept)
		ts.closures[i] = kept
	}
	return ts
}

// count returns how many of list's transactions contain y.
func (ts *tidsets) count(list []int32, y item.Item) int {
	b := ts.bits[y]
	n := 0
	for _, t := range list {
		n += int(b[t/64] >> (t % 64) & 1)
	}
	return n
}

// filter returns the tids of list whose transactions contain y; n, when
// not negative, is their number.
func (ts *tidsets) filter(list []int32, y item.Item, n int) []int32 {
	b := ts.bits[y]
	out := make([]int32, 0, max(n, 0))
	for _, t := range list {
		if b[t/64]&(1<<(t%64)) != 0 {
			out = append(out, t)
		}
	}
	return out
}

// checkByTidsets requires a job's itemsets to be identical — itemsets,
// counts and order — to the tidset reference on the same data.
func checkByTidsets(c *runCtx, in *batchInput, large [][]itemset.Counted) {
	if in.ref == nil {
		ref, err := buildTidsets(in.tax, in.txns, in.spec.minSup).levels(in.tax)
		if !c.ops.op(err, "tidset reference") {
			return
		}
		in.ref = ref
	}
	c.ops.check(equalLevels(large, in.ref), "%s itemsets differ from the tidset reference", in.spec.algorithm)
}

// levels mines every frequent itemset level-wise from the tidsets, so the
// result is complete, not just sound, and comes out in canonical (size,
// lex) order, ending at the first empty level.
//
// L_1 is the frequent items. L_2 counts every pair by walking each item's
// transactions through their closures, drops pairs of an item and its own
// ancestor (Cumulate prunes them: their support is the item's), and keeps
// each frequent pair's tid list, whose length must equal its count. C_k for
// k >= 3 joins members of L_{k-1} that share their first k-2 items and
// keeps a candidate only if all its (k-1)-subsets are in L_{k-1}; its count
// is how many of one parent's transactions contain the other's last item.
func (ts *tidsets) levels(tax *taxonomy.Taxonomy) ([][]itemset.Counted, error) {
	var l1 []itemset.Counted
	rank := make([]int, tax.NumItems()) // index in ts.freq
	for r, x := range ts.freq {
		l1 = append(l1, itemset.Counted{Items: []item.Item{x}, Count: int64(len(ts.lists[x]))})
		rank[x] = r
	}
	out := [][]itemset.Counted{l1}

	var l2 []itemset.Counted
	var tids [][]int32
	nf := len(ts.freq)
	inL2 := make([]bool, nf*nf) // by the ranks of the pair's items
	cnt := make([]int64, tax.NumItems())
	for _, a := range ts.freq {
		clear(cnt)
		for _, t := range ts.lists[a] {
			for _, b := range ts.closures[t] {
				cnt[b]++
			}
		}
		for _, b := range ts.freq {
			if b <= a || cnt[b] < ts.minCount || isAncestor(tax, a, b) || isAncestor(tax, b, a) {
				continue
			}
			list, other := ts.lists[a], b
			if len(ts.lists[b]) < len(list) {
				list, other = ts.lists[b], a
			}
			list = ts.filter(list, other, int(cnt[b]))
			if int64(len(list)) != cnt[b] {
				return nil, fmt.Errorf("pair {%d %d}: %d transactions by closure walk, %d by tidset", a, b, cnt[b], len(list))
			}
			l2 = append(l2, itemset.Counted{Items: []item.Item{a, b}, Count: cnt[b]})
			tids = append(tids, list)
			inL2[rank[a]*nf+rank[b]] = true
		}
	}

	var key []byte
	keyOf := func(xs []item.Item) []byte {
		key = key[:0]
		for _, x := range xs {
			key = binary.AppendUvarint(key, uint64(x))
		}
		return key
	}
	for prev := l2; len(prev) > 0; {
		out = append(out, prev)
		k := len(prev[0].Items) + 1
		inPrev := make(map[string]bool, len(prev))
		for _, x := range prev {
			inPrev[string(keyOf(x.Items))] = true
		}
		var next []itemset.Counted
		var nextTids [][]int32
		cand := make([]item.Item, k)
		sub := make([]item.Item, k-1)
		for i, a := range prev {
			x := a.Items[k-2]
			for j := i + 1; j < len(prev) && item.Equal(a.Items[:k-2], prev[j].Items[:k-2]); j++ {
				// The join gives the subsets without x or without y; the
				// pair {x, y} is the cheapest of the others to look up.
				y := prev[j].Items[k-2]
				if !inL2[rank[x]*nf+rank[y]] {
					continue
				}
				copy(cand, a.Items)
				cand[k-1] = y
				pruned := false
				for skip := 0; skip < k-3 && !pruned; skip++ {
					sub = append(append(sub[:0], cand[:skip]...), cand[skip+1:]...)
					pruned = !inPrev[string(keyOf(sub))]
				}
				if pruned {
					continue
				}
				// cand is a plus y, and also prev[j] plus x: count the
				// shorter tid list.
				list, other := tids[i], y
				if len(tids[j]) < len(list) {
					list, other = tids[j], x
				}
				if n := ts.count(list, other); int64(n) >= ts.minCount {
					next = append(next, itemset.Counted{Items: item.Clone(cand), Count: int64(n)})
					nextTids = append(nextTids, ts.filter(list, other, n))
				}
			}
		}
		prev, tids = next, nextTids
	}
	return out, nil
}

// isAncestor reports whether a is a proper ancestor of d, walking the
// taxonomy's parent links.
func isAncestor(tax *taxonomy.Taxonomy, a, d item.Item) bool {
	for x := tax.Parent(d); x != item.None; x = tax.Parent(x) {
		if x == a {
			return true
		}
	}
	return false
}

// checkSamples requires every sampled HTTP response to equal an in-process
// Recommend on the index of the generation the response names.
func checkSamples(c *runCtx, cs *clientStats, byGen map[int64]*serve.Index) {
	for _, s := range cs.samples {
		ix := byGen[s.resp.Generation]
		if ix == nil {
			c.ops.check(false, "response names unknown generation %d", s.resp.Generation)
			continue
		}
		want := ix.Recommend(ix.Normalize(s.basket), recommendK)
		got := s.resp.Recommendations
		c.ops.check(len(want) == len(got) && (len(want) == 0 || reflect.DeepEqual(want, got)),
			"response for basket %v at generation %d differs from Index.Recommend", s.basket, s.resp.Generation)
	}
}
