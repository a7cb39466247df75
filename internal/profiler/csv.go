package profiler

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WriteNvprofCSV writes the profile in an nvprof --csv like layout:
// one "metric,value" row per counter, preceded by identification rows.
func (pr *Profile) WriteNvprofCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "==PROF== device,%s\n==PROF== kernel,%s\n==PROF== time_ms,%s\n",
		pr.Device, pr.Workload, strconv.FormatFloat(pr.TimeMS, 'g', -1, 64)); err != nil {
		return err
	}
	for _, name := range pr.MetricNames() {
		if _, err := fmt.Fprintf(w, "%s,%s\n", name,
			strconv.FormatFloat(pr.Metrics[name], 'g', -1, 64)); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
