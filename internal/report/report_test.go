package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	var sb strings.Builder
	err := Table(&sb, []string{"name", "value"}, [][]string{
		{"short", "1"},
		{"a-much-longer-name", "23456"},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[1], "----") {
		t.Fatal("missing separator row")
	}
	if !strings.Contains(lines[3], "a-much-longer-name  23456") {
		t.Fatalf("row misaligned: %q", lines[3])
	}
}

func TestBarChart(t *testing.T) {
	var sb strings.Builder
	err := BarChart(&sb, "title", []string{"a", "bb"}, []float64{2, 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "title") {
		t.Fatal("title missing")
	}
	// The larger value gets the longer bar.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if strings.Count(lines[1], "█") <= strings.Count(lines[2], "█") {
		t.Fatalf("bar lengths wrong:\n%s", out)
	}
}

func TestBarChartZeroValues(t *testing.T) {
	var sb strings.Builder
	if err := BarChart(&sb, "", []string{"a"}, []float64{0}, 10); err != nil {
		t.Fatal(err)
	}
}

func TestXYChart(t *testing.T) {
	var sb strings.Builder
	xs := []float64{0, 1, 2, 3}
	err := XYChart(&sb, "chart", xs, []Series{
		{Name: "up", Y: []float64{0, 1, 2, 3}},
		{Name: "down", Y: []float64{3, 2, 1, 0}},
	}, 20, 6)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "legend: *=up  o=down") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatal("series glyphs missing")
	}
}

func TestXYChartEmpty(t *testing.T) {
	var sb strings.Builder
	if err := XYChart(&sb, "t", nil, nil, 10, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no data") {
		t.Fatal("empty chart not flagged")
	}
}

func TestXYChartConstantSeries(t *testing.T) {
	var sb strings.Builder
	err := XYChart(&sb, "", []float64{1, 1, 1}, []Series{{Name: "flat", Y: []float64{5, 5, 5}}}, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var sb strings.Builder
	err := WriteSeriesCSV(&sb, "size", []float64{1, 2}, []Series{
		{Name: "m", Y: []float64{10, 20}},
		{Name: "p", Y: []float64{11}},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "size,m,p" {
		t.Fatalf("header %q", lines[0])
	}
	if lines[1] != "1,10,11" {
		t.Fatalf("row %q", lines[1])
	}
	if !strings.Contains(lines[2], "NaN") {
		t.Fatalf("short series not padded with NaN: %q", lines[2])
	}
}

func TestSortedByX(t *testing.T) {
	xs, ys := SortedByX([]float64{3, 1, 2}, []float64{30, 10, 20})
	if xs[0] != 1 || ys[0] != 10 || xs[2] != 3 || ys[2] != 30 {
		t.Fatalf("sorted %v %v", xs, ys)
	}
}

// TestSortedByXTiesKeepInputOrder: points with equal x keep their input
// order, so series sorted in separate calls over one xs stay paired. The
// input has 40 points on 4 distinct x values: with 12 or fewer the standard
// library's sort is an insertion sort and keeps ties in place anyway.
func TestSortedByXTiesKeepInputOrder(t *testing.T) {
	const n = 40
	xs := make([]float64, n)
	ids := make([]float64, n)
	for i := range xs {
		xs[i] = float64((n - i) % 4)
		ids[i] = float64(i)
	}
	sx, sid := SortedByX(xs, ids)
	for k := 1; k < n; k++ {
		if sx[k-1] > sx[k] || sx[k-1] == sx[k] && sid[k-1] >= sid[k] {
			t.Fatalf("positions %d, %d: (x %v, input %v) before (x %v, input %v)",
				k-1, k, sx[k-1], sid[k-1], sx[k], sid[k])
		}
	}
}
