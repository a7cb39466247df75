package rtree

// Tree-identity regression tests: the fig2 golden-file pattern applied to
// the learner itself. testdata/tree_fixture.json holds trees fitted by the
// pre-optimization implementation (legacyFit, frozen in legacy_test.go);
// the production Fit must reproduce them byte for byte. Any change to split
// finding that alters even one threshold ULP or one purity-gain bit fails
// here before it can silently shift every figure downstream.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"blackforest/internal/stats"
)

const treeFixturePath = "testdata/tree_fixture.json"

// fixtureCase describes one pinned training configuration. Everything is
// derived from seeds so the exact same data and RNG streams can be rebuilt
// by both implementations.
type fixtureCase struct {
	Name      string
	N, P      int
	DataSeed  uint64
	Bootstrap bool // idx drawn with replacement (duplicated rows)
	StepY     bool // quantized response: exercises pure-node early exit
	QuantX    bool // quantize even-indexed features: cross-row value ties
	// with unequal y, forcing the exact per-node sort fallback
	RNGSeed uint64 // seeds Params.RNG when MTry > 0
	Params  Params // RNG field filled in at fit time
}

func fixtureCases() []fixtureCase {
	return []fixtureCase{
		{Name: "plain_cart", N: 80, P: 6, DataSeed: 11, Params: Params{MinNodeSize: 5}},
		{Name: "bootstrap_mtry", N: 120, P: 10, DataSeed: 22, Bootstrap: true, RNGSeed: 7, Params: Params{MinNodeSize: 5, MTry: 3}},
		{Name: "depth_capped", N: 100, P: 8, DataSeed: 33, RNGSeed: 9, Params: Params{MinNodeSize: 2, MaxDepth: 4, MTry: 2}},
		{Name: "pure_regions", N: 90, P: 5, DataSeed: 44, StepY: true, Params: Params{MinNodeSize: 3}},
		{Name: "tiny", N: 12, P: 3, DataSeed: 55, Params: Params{MinNodeSize: 5}},
		{Name: "deep_small_nodes", N: 200, P: 7, DataSeed: 66, Bootstrap: true, RNGSeed: 13, Params: Params{MinNodeSize: 2, MTry: 4}},
		{Name: "tied_counters", N: 150, P: 9, DataSeed: 77, QuantX: true, Bootstrap: true, RNGSeed: 17, Params: Params{MinNodeSize: 3, MTry: 3}},
	}
}

// fixtureData builds a continuous design matrix (no cross-row value
// collisions, so presorted and per-node orderings agree exactly) plus a
// response with signal and noise.
func fixtureData(c fixtureCase) (x [][]float64, y []float64, idx []int) {
	rng := stats.NewRNG(c.DataSeed)
	x = make([][]float64, c.N)
	y = make([]float64, c.N)
	for i := range x {
		row := make([]float64, c.P)
		for j := range row {
			row[j] = rng.Float64()
			if c.QuantX && j%2 == 0 {
				row[j] = float64(int(8*row[j])) / 8
			}
		}
		x[i] = row
		if c.StepY {
			// Piecewise-constant response: many pure nodes.
			y[i] = float64(int(3 * row[0]))
		} else {
			y[i] = 10*row[0] + rng.NormFloat64()
			if c.P > 1 {
				y[i] += 5 * row[1]
			}
		}
	}
	if c.Bootstrap {
		idx, _ = stats.NewRNG(c.DataSeed ^ 0xb007).Bootstrap(c.N)
	}
	return x, y, idx
}

func fitFixtureCase(t *testing.T, c fixtureCase, fit func([][]float64, []float64, []int, Params) (*Tree, error)) *Tree {
	t.Helper()
	x, y, idx := fixtureData(c)
	p := c.Params
	if p.MTry > 0 {
		p.RNG = stats.NewRNG(c.RNGSeed)
	}
	tree, err := fit(x, y, idx, p)
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	return tree
}

type fixtureEntry struct {
	Name string        `json:"name"`
	Tree *ExportedTree `json:"tree"`
}

func marshalFixture(entries []fixtureEntry) []byte {
	out, err := json.MarshalIndent(entries, "", " ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

// TestUpdateTreeFixture regenerates the pinned fixture from the FROZEN
// legacy implementation. It never runs the production Fit, so the fixture
// always encodes pre-optimization behavior:
//
//	UPDATE_TREE_FIXTURE=1 go test ./internal/rtree -run TestUpdateTreeFixture
func TestUpdateTreeFixture(t *testing.T) {
	if os.Getenv("UPDATE_TREE_FIXTURE") == "" {
		t.Skip("set UPDATE_TREE_FIXTURE=1 to regenerate " + treeFixturePath)
	}
	var entries []fixtureEntry
	for _, c := range fixtureCases() {
		entries = append(entries, fixtureEntry{Name: c.Name, Tree: fitFixtureCase(t, c, legacyFit).Export()})
	}
	if err := os.MkdirAll(filepath.Dir(treeFixturePath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(treeFixturePath, marshalFixture(entries), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFitMatchesPinnedFixture is the learner-level golden test: trees grown
// by the current Fit must serialize byte-identically to the committed
// pre-optimization fixture.
func TestFitMatchesPinnedFixture(t *testing.T) {
	golden, err := os.ReadFile(treeFixturePath)
	if err != nil {
		t.Fatalf("reading fixture (regenerate with UPDATE_TREE_FIXTURE=1): %v", err)
	}
	var entries []fixtureEntry
	for _, c := range fixtureCases() {
		entries = append(entries, fixtureEntry{Name: c.Name, Tree: fitFixtureCase(t, c, Fit).Export()})
	}
	got := marshalFixture(entries)
	if string(got) != string(golden) {
		// Pinpoint the first diverging case for a useful failure message.
		var want []fixtureEntry
		if err := json.Unmarshal(golden, &want); err != nil {
			t.Fatalf("fixture corrupt: %v", err)
		}
		for i := range entries {
			if i >= len(want) {
				break
			}
			g, _ := json.Marshal(entries[i])
			w, _ := json.Marshal(want[i])
			if string(g) != string(w) {
				t.Fatalf("case %q drifted from the pre-optimization fixture.\ngot:  %s\nwant: %s",
					entries[i].Name, g, w)
			}
		}
		t.Fatal("fixture drifted (case list changed?); regenerate only if the divergence is intended and understood")
	}
}

// TestFitMatchesLegacyReference differentially checks the presorted Fit
// against the frozen per-node-sort reference on freshly generated data —
// wider coverage than the static fixture, same bit-identity bar.
func TestFitMatchesLegacyReference(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		seed := uint64(1000 + trial)
		rng := stats.NewRNG(seed)
		n := 20 + int(rng.Uint64()%200)
		p := 1 + int(rng.Uint64()%12)
		c := fixtureCase{
			Name:      fmt.Sprintf("trial%d", trial),
			N:         n,
			P:         p,
			DataSeed:  seed * 3,
			Bootstrap: trial%2 == 0,
			StepY:     trial%5 == 4,
			QuantX:    trial%3 != 0,
			RNGSeed:   seed * 7,
			Params: Params{
				MinNodeSize: 1 + int(rng.Uint64()%8),
				MaxDepth:    int(rng.Uint64() % 6), // 0 = unlimited
				MTry:        int(rng.Uint64() % uint64(p+1)),
			},
		}
		want := fitFixtureCase(t, c, legacyFit).Export()
		got := fitFixtureCase(t, c, Fit).Export()
		w, _ := json.Marshal(want)
		g, _ := json.Marshal(got)
		if string(w) != string(g) {
			t.Fatalf("trial %d (n=%d p=%d %+v): presorted Fit diverged from legacy reference\ngot:  %s\nwant: %s",
				trial, n, p, c.Params, g, w)
		}
	}
}
