package mars

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"blackforest/internal/mat"
)

// fitCoefficients is the full refit the incremental passes replaced, kept
// as their differential oracle: it evaluates every term into a fresh design
// matrix and solves the ridge system from scratch.
func fitCoefficients(x [][]float64, y []float64, terms []term) ([]float64, float64, error) {
	n := len(x)
	design := mat.New(n, len(terms))
	for i, row := range x {
		for j, t := range terms {
			design.Set(i, j, t.eval(row))
		}
	}
	coef, err := mat.SolveRidge(design, y, 1e-10)
	if err != nil {
		return nil, 0, err
	}
	pred, err := design.MulVec(coef)
	if err != nil {
		return nil, 0, err
	}
	var rss float64
	for i := range y {
		d := y[i] - pred[i]
		rss += d * d
	}
	return coef, rss, nil
}

// oracleFit is Fit with both passes refitting every candidate through
// fitCoefficients.
func oracleFit(x [][]float64, y []float64, names []string, cfg Config) (*Model, error) {
	cfg, err := prepare(x, y, names, cfg)
	if err != nil {
		return nil, err
	}
	knots := candidateKnots(x, cfg.MaxKnots)
	terms := oracleForwardPass(x, y, knots, cfg)
	terms = oracleBackwardPass(x, y, terms, cfg)
	coef, rss, err := fitCoefficients(x, y, terms)
	if err != nil {
		return nil, err
	}
	return newModel(names, terms, coef, rss, y, cfg), nil
}

func oracleForwardPass(x [][]float64, y []float64, knots [][]float64, cfg Config) []term {
	terms := []term{{}}
	_, bestRSS, err := fitCoefficients(x, y, terms)
	if err != nil {
		return terms
	}
	for len(terms)+1 < cfg.MaxTerms {
		type candidate struct {
			parent int
			h      hinge
		}
		var best candidate
		bestGain := 0.0
		found := false
		for pi, parent := range terms {
			if len(parent.factors) >= cfg.MaxDegree {
				continue
			}
			for j, ks := range knots {
				if parent.usesFeature(j) {
					continue
				}
				for _, k := range ks {
					trial := append(terms,
						extend(parent, hinge{feature: j, knot: k, pos: true}),
						extend(parent, hinge{feature: j, knot: k, pos: false}),
					)
					_, rss, err := fitCoefficients(x, y, trial)
					if err != nil {
						continue
					}
					if gain := bestRSS - rss; gain > bestGain {
						bestGain = gain
						best = candidate{parent: pi, h: hinge{feature: j, knot: k, pos: true}}
						found = true
					}
				}
			}
		}
		if !found || bestGain < 1e-4*bestRSS {
			break
		}
		parent := terms[best.parent]
		terms = append(terms,
			extend(parent, best.h),
			extend(parent, hinge{feature: best.h.feature, knot: best.h.knot, pos: false}),
		)
		bestRSS -= bestGain
		if bestRSS <= 1e-12 {
			break
		}
	}
	return terms
}

func oracleBackwardPass(x [][]float64, y []float64, terms []term, cfg Config) []term {
	n := len(x)
	best := append([]term(nil), terms...)
	_, rss, err := fitCoefficients(x, y, terms)
	if err != nil {
		return best
	}
	bestGCV := gcv(rss, n, len(terms), cfg.Penalty)
	current := append([]term(nil), terms...)
	for len(current) > 1 {
		removeIdx := -1
		removeGCV := math.Inf(1)
		for i := 1; i < len(current); i++ {
			trial := make([]term, 0, len(current)-1)
			trial = append(trial, current[:i]...)
			trial = append(trial, current[i+1:]...)
			_, rss, err := fitCoefficients(x, y, trial)
			if err != nil {
				continue
			}
			if g := gcv(rss, n, len(trial), cfg.Penalty); g < removeGCV {
				removeGCV = g
				removeIdx = i
			}
		}
		if removeIdx < 0 {
			break
		}
		current = append(current[:removeIdx], current[removeIdx+1:]...)
		if removeGCV < bestGCV {
			bestGCV = removeGCV
			best = append([]term(nil), current...)
		}
	}
	return best
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameModel reports how two fitted models differ bit for bit, or "".
func sameModel(got, want *Model) string {
	if len(got.terms) != len(want.terms) {
		return fmt.Sprintf("%d terms, oracle %d", len(got.terms), len(want.terms))
	}
	for i := range got.terms {
		g, w := got.terms[i].factors, want.terms[i].factors
		if len(g) != len(w) {
			return fmt.Sprintf("term %d has %d factors, oracle %d", i, len(g), len(w))
		}
		for k := range g {
			if g[k].feature != w[k].feature || g[k].pos != w[k].pos || !bitsEqual(g[k].knot, w[k].knot) {
				return fmt.Sprintf("term %d factor %d is %+v, oracle %+v", i, k, g[k], w[k])
			}
		}
		if !bitsEqual(got.Coef[i], want.Coef[i]) {
			return fmt.Sprintf("Coef[%d] = %v, oracle %v", i, got.Coef[i], want.Coef[i])
		}
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{{"RSS", got.RSS, want.RSS}, {"GCV", got.GCV, want.GCV}, {"TrainR2", got.TrainR2, want.TrainR2}} {
		if !bitsEqual(f.got, f.want) {
			return fmt.Sprintf("%s = %v, oracle %v", f.name, f.got, f.want)
		}
	}
	return ""
}

// checkAgainstOracle fits (x, y) incrementally with every candidate of both
// passes checked against fitCoefficients, then checks the final model
// against oracleFit. It returns the number of candidates checked.
func checkAgainstOracle(t testing.TB, x [][]float64, y []float64, names []string, cfg Config) int {
	t.Helper()
	checked := 0
	var failure string
	m, err := fit(x, y, names, cfg, func(trial []term, rss float64, err error) {
		checked++
		_, want, werr := fitCoefficients(x, y, trial)
		if failure == "" && ((err == nil) != (werr == nil) || err == nil && !bitsEqual(rss, want)) {
			failure = fmt.Sprintf("candidate %d (%d terms): RSS %v err %v, oracle %v err %v",
				checked, len(trial), rss, err, want, werr)
		}
	})
	if failure != "" {
		t.Fatal(failure)
	}
	om, oerr := oracleFit(x, y, names, cfg)
	if (err == nil) != (oerr == nil) || err != nil && err.Error() != oerr.Error() {
		t.Fatalf("fit error %v, oracle %v", err, oerr)
	}
	if err == nil {
		if diff := sameModel(m, om); diff != "" {
			t.Fatal(diff)
		}
	}
	return checked
}

// CheckAgainstOracle lets the study-frame tests of package mars_test run
// the differential check.
var CheckAgainstOracle = checkAgainstOracle

// hingeData draws m rows of p features on a coarse grid, so that knots
// coincide with tied x values and the mirrored hinge evaluates to −0 there,
// with a response built from hinges and noise.
func hingeData(rng *rand.Rand, m, p int) ([][]float64, []float64, []string) {
	x := make([][]float64, m)
	y := make([]float64, m)
	names := make([]string, p)
	for j := range names {
		names[j] = fmt.Sprintf("x%d", j)
	}
	levels := 4 + rng.Intn(12)
	for i := range x {
		x[i] = make([]float64, p)
		for j := range x[i] {
			x[i][j] = float64(rng.Intn(levels)) * 0.25
		}
		a := x[i][0]
		y[i] = 1 + 3*math.Max(0, a-1) - 2*math.Max(0, 1.5-a) + 0.3*rng.NormFloat64()
		if p > 1 {
			y[i] += x[i][0] * math.Max(0, x[i][1]-0.5)
		}
	}
	return x, y, names
}

// TestIncrementalFitMatchesOracleRandom runs the differential check on
// random hinge data: m 20–80 rows, candidates on bases of 1–12 terms.
func TestIncrementalFitMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 40; trial++ {
		m := 20 + rng.Intn(61)
		p := 1 + rng.Intn(3)
		x, y, names := hingeData(rng, m, p)
		cfg := Config{MaxTerms: 3 + rng.Intn(12), MaxDegree: 1 + rng.Intn(2), MaxKnots: 4 + rng.Intn(17)}
		t.Run(fmt.Sprintf("m%d_p%d_terms%d", m, p, cfg.MaxTerms), func(t *testing.T) {
			if checkAgainstOracle(t, x, y, names, cfg) == 0 {
				t.Fatal("no candidate fits were checked")
			}
		})
	}
}

// TestChildColumnMatchesEval: a child column built from its parent's
// column equals term.eval bit for bit, +0 included where the mirrored hinge
// gives −0.
func TestChildColumnMatchesEval(t *testing.T) {
	x := [][]float64{{0, 1}, {1, 1}, {2, 0}, {3, 2}}
	parent := term{factors: []hinge{{feature: 1, knot: 1, pos: true}}}
	for _, h := range []hinge{{feature: 0, knot: 1, pos: true}, {feature: 0, knot: 1, pos: false}} {
		for _, p := range []term{{}, parent} {
			child := extend(p, h)
			got := make([]float64, len(x))
			childColumn(got, columns(x, []term{p})[0], x, h)
			for i, row := range x {
				if want := child.eval(row); !bitsEqual(got[i], want) {
					t.Fatalf("row %d of %+v: %v, eval %v", i, child, got[i], want)
				}
			}
		}
	}
	if h := (hinge{feature: 0, knot: 1, pos: false}).eval(x[1]); !math.Signbit(h) {
		t.Fatalf("fixture lost its −0 hinge: %v", h)
	}
}

// FuzzFitMatchesOracle fits small fuzzed datasets through the incremental
// passes and the full-refit oracle: the models must be bit-equal, or both
// fits must fail with the same error.
func FuzzFitMatchesOracle(f *testing.F) {
	f.Add([]byte{12, 1, 5, 2, 0, 3, 9, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4})
	f.Add([]byte{30, 2, 8, 1, 7, 7, 7, 0, 0, 0, 255, 128, 3, 3, 3, 64, 200, 17, 91, 42})
	f.Add([]byte{5, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		m := 2 + int(data[0])%40
		p := 1 + int(data[1])%3
		cfg := Config{MaxTerms: 2 + int(data[2])%12, MaxDegree: 1 + int(data[3])%2}
		data = data[4:]
		next := func() float64 {
			if len(data) == 0 {
				return 0
			}
			v := float64(int8(data[0])) / 8
			data = data[1:]
			return v
		}
		x := make([][]float64, m)
		y := make([]float64, m)
		names := make([]string, p)
		for j := range names {
			names[j] = fmt.Sprintf("x%d", j)
		}
		for i := range x {
			x[i] = make([]float64, p)
			for j := range x[i] {
				x[i][j] = next()
			}
			y[i] = next()
		}
		checkAgainstOracle(t, x, y, names, cfg)
	})
}
