package forest

import "testing"

// allocsPerTree is what Fit allocates for each tree it grows: the seven
// results of rtree.Grower.Fit (see rtree's TestGrowerAllocsPerTreeFixed)
// and the tree's out-of-bag list. Every other buffer of growing,
// out-of-bag error and permutation importance is per fit or per worker.
const allocsPerTree = 8

// TestFitAllocsPerTreeFixed pins Fit's per-tree allocations: on one worker,
// two fits that differ only in their tree count differ in allocations by
// exactly allocsPerTree per extra tree, so per-tree scratch cannot creep
// back into growing or importance.
func TestFitAllocsPerTreeFixed(t *testing.T) {
	for _, shape := range []struct{ n, seed int }{{60, 4}, {25, 11}} {
		x, y, names := friedman1(shape.n, uint64(shape.seed))
		allocs := func(nTrees int) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := Fit(x, y, names, Config{NTrees: nTrees, MinNodeSize: 3, Seed: 7, Workers: 1}); err != nil {
					t.Fatal(err)
				}
			})
		}
		few, many := allocs(10), allocs(40)
		if got := (many - few) / 30; got != allocsPerTree {
			t.Errorf("%d rows: %.2f allocations per extra tree (%.0f for 10 trees, %.0f for 40), want %d",
				shape.n, got, few, many, allocsPerTree)
		}
	}
}
