package dataset

import (
	"os"
	"strings"
	"testing"

	"blackforest/internal/stats"
)

func sample(t *testing.T) *Frame {
	t.Helper()
	f, err := FromColumns(
		[]string{"a", "b", "time_ms"},
		[][]float64{{1, 2, 3, 4}, {10, 20, 30, 40}, {0.1, 0.2, 0.3, 0.4}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFromColumnsAndAccessors(t *testing.T) {
	f := sample(t)
	if f.NumRows() != 4 || f.NumCols() != 3 {
		t.Fatalf("dims %dx%d", f.NumRows(), f.NumCols())
	}
	if !f.Has("a") || f.Has("zz") {
		t.Fatal("Has wrong")
	}
	b, err := f.Column("b")
	if err != nil || b[2] != 30 {
		t.Fatalf("Column: %v %v", b, err)
	}
	if _, err := f.Column("zz"); err == nil {
		t.Fatal("missing column accepted")
	}
	v, err := f.At(3, "a")
	if err != nil || v != 4 {
		t.Fatalf("At: %v %v", v, err)
	}
	if _, err := f.At(9, "a"); err == nil {
		t.Fatal("out-of-range row accepted")
	}
}

func TestAddColumnValidation(t *testing.T) {
	f := sample(t)
	if err := f.AddColumn("a", []float64{1, 2, 3, 4}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if err := f.AddColumn("c", []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := f.AddConstColumn("k", 7); err != nil {
		t.Fatal(err)
	}
	k, _ := f.Column("k")
	for _, v := range k {
		if v != 7 {
			t.Fatal("const column wrong")
		}
	}
}

func TestColumnCopySemantics(t *testing.T) {
	vals := []float64{1, 2}
	f := New()
	if err := f.AddColumn("x", vals); err != nil {
		t.Fatal(err)
	}
	vals[0] = 99
	x, _ := f.Column("x")
	if x[0] != 1 {
		t.Fatal("AddColumn must copy input")
	}
}

func TestAppendRow(t *testing.T) {
	f := New()
	if err := f.AppendRow(map[string]float64{"x": 1, "y": 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.AppendRow(map[string]float64{"x": 3, "y": 4}); err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 2 {
		t.Fatalf("rows %d", f.NumRows())
	}
	if err := f.AppendRow(map[string]float64{"x": 1}); err == nil {
		t.Fatal("schema mismatch accepted")
	}
	if err := f.AppendRow(map[string]float64{"x": 1, "z": 2}); err == nil {
		t.Fatal("wrong column name accepted")
	}
}

func TestSelectDropSubset(t *testing.T) {
	f := sample(t)
	s, err := f.Select("b", "a")
	if err != nil || s.NumCols() != 2 || s.Names()[0] != "b" {
		t.Fatalf("Select: %v %v", s.Names(), err)
	}
	sub, err := f.Subset([]int{3, 0})
	if err != nil || sub.NumRows() != 2 {
		t.Fatal("Subset wrong")
	}
	if v, _ := sub.At(0, "a"); v != 4 {
		t.Fatal("Subset order not preserved")
	}
	if _, err := f.Subset([]int{9}); err == nil {
		t.Fatal("bad subset row accepted")
	}
}

func TestSplit(t *testing.T) {
	f, _ := FromColumns([]string{"x"}, [][]float64{make([]float64, 100)})
	train, test, err := f.Split(stats.NewRNG(1), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if train.NumRows() != 80 || test.NumRows() != 20 {
		t.Fatalf("split %d/%d", train.NumRows(), test.NumRows())
	}
	if _, _, err := New().Split(stats.NewRNG(1), 0.8); err == nil {
		t.Fatal("empty split accepted")
	}
}

func TestMatrix(t *testing.T) {
	f := sample(t)
	m, err := f.Matrix([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 4 || m[1][0] != 2 || m[1][1] != 20 {
		t.Fatalf("Matrix wrong: %v", m)
	}
	if _, err := f.Matrix([]string{"zz"}); err == nil {
		t.Fatal("missing column accepted")
	}
}

func TestBind(t *testing.T) {
	f := sample(t)
	g := sample(t)
	b, err := f.Bind(g)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 8 {
		t.Fatalf("bind rows %d", b.NumRows())
	}
	h, _ := FromColumns([]string{"other"}, [][]float64{{1}})
	if _, err := f.Bind(h); err == nil {
		t.Fatal("mismatched bind accepted")
	}
}

func TestDropConstantColumns(t *testing.T) {
	f, _ := FromColumns(
		[]string{"varies", "const", "time_ms"},
		[][]float64{{1, 2, 3}, {5, 5, 5}, {7, 7, 7}},
	)
	out := f.DropConstantColumns("time_ms")
	if out.Has("const") {
		t.Fatal("constant column kept")
	}
	if !out.Has("time_ms") {
		t.Fatal("protected column dropped")
	}
	if !out.Has("varies") {
		t.Fatal("varying column dropped")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	f := sample(t)
	var sb strings.Builder
	if err := f.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	g, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != f.NumRows() || g.NumCols() != f.NumCols() {
		t.Fatal("roundtrip dims differ")
	}
	for _, name := range f.Names() {
		a, _ := f.Column(name)
		b, _ := g.Column(name)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("roundtrip value differs in %s[%d]", name, i)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b\n1,notanumber\n")); err == nil {
		t.Fatal("non-numeric cell accepted")
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// SaveCSV writes the frame to the named file.
func (f *Frame) SaveCSV(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	defer file.Close()
	if err := f.WriteCSV(file); err != nil {
		return err
	}
	return file.Close()
}

func TestSaveLoadCSV(t *testing.T) {
	f := sample(t)
	path := t.TempDir() + "/frame.csv"
	if err := f.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	g, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRows() != 4 {
		t.Fatal("load wrong")
	}
	if _, err := LoadCSV(t.TempDir() + "/missing.csv"); err == nil {
		t.Fatal("missing file accepted")
	}
}
