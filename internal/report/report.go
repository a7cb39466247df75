// Package report renders BlackForest results for humans: aligned text
// tables, horizontal bar charts (variable importance), and x/y line charts
// (partial dependence, predicted-vs-measured series) — the textual
// equivalents of the paper's figures — plus CSV emission of every series
// so results can be re-plotted elsewhere.
package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Table writes rows under headers with columns padded to equal width.
func Table(w io.Writer, headers []string, rows [][]string) error {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
		_, err := io.WriteString(w, b.String())
		return err
	}
	if err := writeRow(headers); err != nil {
		return err
	}
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := writeRow(sep); err != nil {
		return err
	}
	for _, row := range rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// BarChart draws a horizontal bar chart: one labeled bar per value, scaled
// to maxWidth characters. Used for variable-importance figures.
func BarChart(w io.Writer, title string, labels []string, values []float64, maxWidth int) error {
	if maxWidth <= 0 {
		maxWidth = 50
	}
	if title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
			return err
		}
	}
	labelWidth := 0
	maxVal := 0.0
	for i, l := range labels {
		if len(l) > labelWidth {
			labelWidth = len(l)
		}
		if math.Abs(values[i]) > maxVal {
			maxVal = math.Abs(values[i])
		}
	}
	if maxVal == 0 {
		maxVal = 1
	}
	for i, l := range labels {
		n := int(math.Abs(values[i]) / maxVal * float64(maxWidth))
		bar := strings.Repeat("█", n)
		if n == 0 && values[i] != 0 {
			bar = "▏"
		}
		if _, err := fmt.Fprintf(w, "  %-*s %s %.4g\n", labelWidth, l, bar, values[i]); err != nil {
			return err
		}
	}
	return nil
}

// Series is one named line of an XY chart.
type Series struct {
	Name string
	Y    []float64
}

// XYChart plots one or more series over shared x values on a character
// grid. Each series uses its own glyph; a legend follows the plot.
func XYChart(w io.Writer, title string, xs []float64, series []Series, width, height int) error {
	if width <= 0 {
		width = 64
	}
	if height <= 0 {
		height = 16
	}
	if title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
			return err
		}
	}
	if len(xs) == 0 || len(series) == 0 {
		_, err := io.WriteString(w, "  (no data)\n")
		return err
	}

	xmin, xmax := minMax(xs)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		lo, hi := minMax(s.Y)
		ymin = math.Min(ymin, lo)
		ymax = math.Max(ymax, hi)
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	glyphs := []byte{'*', 'o', '+', 'x', '#', '@'}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for i, x := range xs {
			if i >= len(s.Y) {
				break
			}
			col := int((x - xmin) / (xmax - xmin) * float64(width-1))
			row := height - 1 - int((s.Y[i]-ymin)/(ymax-ymin)*float64(height-1))
			if row >= 0 && row < height && col >= 0 && col < width {
				grid[row][col] = g
			}
		}
	}
	for r, line := range grid {
		label := "          "
		switch r {
		case 0:
			label = fmt.Sprintf("%10.4g", ymax)
		case height - 1:
			label = fmt.Sprintf("%10.4g", ymin)
		}
		if _, err := fmt.Fprintf(w, "%s |%s|\n", label, string(line)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%10.4g %s %10.4g\n", xmin, strings.Repeat(" ", width-9), xmax); err != nil {
		return err
	}
	legend := make([]string, len(series))
	for i, s := range series {
		legend[i] = fmt.Sprintf("%c=%s", glyphs[i%len(glyphs)], s.Name)
	}
	_, err := fmt.Fprintf(w, "           legend: %s\n", strings.Join(legend, "  "))
	return err
}

// WriteSeriesCSV writes x plus the series as CSV columns.
func WriteSeriesCSV(w io.Writer, xName string, xs []float64, series []Series) error {
	headers := []string{xName}
	for _, s := range series {
		headers = append(headers, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(headers, ",")); err != nil {
		return err
	}
	for i, x := range xs {
		cells := []string{strconv.FormatFloat(x, 'g', -1, 64)}
		for _, s := range series {
			v := math.NaN()
			if i < len(s.Y) {
				v = s.Y[i]
			}
			cells = append(cells, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// SortedByX returns copies of xs and ys sorted by ascending x — chart
// helpers expect ordered series. Equal x values keep their input order, so
// two calls on the same xs apply the same permutation to their ys.
func SortedByX(xs, ys []float64) (sx, sy []float64) {
	type pt struct{ x, y float64 }
	pts := make([]pt, len(xs))
	for i := range xs {
		pts[i] = pt{xs[i], ys[i]}
	}
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	sx = make([]float64, len(pts))
	sy = make([]float64, len(pts))
	for i, p := range pts {
		sx[i], sy[i] = p.x, p.y
	}
	return sx, sy
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}
