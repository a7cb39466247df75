package rtree

import (
	"slices"
	"sort"
	"testing"

	"blackforest/internal/stats"
)

// TestSortFuncMatchesSortSlice pins the assumption behind the unsafe-feature
// sort in bestSplit: slices.SortFunc and sort.Slice are the same generated
// pdqsort, so given the same initial order and an equivalent comparator
// they produce the same permutation — including the placement of equal
// keys, which is what the bit-identity guarantee rides on — and sorting
// (value, id) pairs by value permutes the ids exactly as sorting the ids
// by their gathered values does. If a Go release ever splits the
// implementations, this fails before any golden file can drift.
func TestSortFuncMatchesSortSlice(t *testing.T) {
	rng := stats.NewRNG(99)
	for _, n := range []int{0, 1, 2, 7, 12, 13, 40, 100, 257, 1000, 5000} {
		for _, distinct := range []int{1, 2, 5, 1 << 30} {
			keys := make([]float64, n)
			for i := range keys {
				keys[i] = float64(rng.Intn(distinct))
			}
			init := make([]int32, n)
			for i, v := range rng.Perm(n) {
				init[i] = int32(v)
			}

			a := make([]int32, n)
			copy(a, init)
			sort.Slice(a, func(i, j int) bool { return keys[a[i]] < keys[a[j]] })

			b := make([]int32, n)
			copy(b, init)
			slices.SortFunc(b, func(x, y int32) int {
				if keys[x] < keys[y] {
					return -1
				}
				if keys[x] > keys[y] {
					return 1
				}
				return 0
			})

			if !slices.Equal(a, b) {
				t.Fatalf("n=%d distinct=%d: sort.Slice and slices.SortFunc placed ties differently", n, distinct)
			}

			// The split scan sorts (value, id) pairs with byValue instead
			// of gathering the value per comparison: the same pdqsort
			// making the same comparisons must leave the ids in the same
			// permutation.
			pairs := make([]pair, n)
			for i, id := range init {
				pairs[i] = pair{keys[id], id}
			}
			slices.SortFunc(pairs, byValue)
			for i, s := range pairs {
				if s.id != b[i] {
					t.Fatalf("n=%d distinct=%d: pair sort put id %d at %d, id sort put %d", n, distinct, s.id, i, b[i])
				}
			}
		}
	}
}
