package main

import (
	"fmt"
	"math/rand"

	"pgarm/internal/gen"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// shuffledR30F5 returns n transactions of the paper's R30F5 dataset in an
// order drawn from seed, renumbered 0..n-1 in that order. The generator runs
// with its fixed seed, so the transactions themselves are always the same
// and every run mines the same itemsets and derives the same rules; the seed
// decides their order, and with it how they fall into partitions, into the
// stream's prefix and deltas, and which baskets the request mix makes
// popular. If the seed drew the transactions too, the itemsets near the
// support threshold would come and go from seed to seed, and with them the
// rule count and every timing.
func shuffledR30F5(seed int64, n int) (*taxonomy.Taxonomy, string, []txn.Transaction, error) {
	p := gen.R30F5()
	p.NumTxns = n
	var all []txn.Transaction
	tax, err := gen.Stream(p, func(t txn.Transaction) error {
		all = append(all, t)
		return nil
	})
	if err != nil {
		return nil, "", nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	txns := make([]txn.Transaction, n)
	for i, j := range rng.Perm(n) {
		txns[i] = txn.Transaction{TID: int64(i), Items: all[j].Items}
	}
	return tax, fmt.Sprintf("R30F5@%d/seed%d", n, seed), txns, nil
}
