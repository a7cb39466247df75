package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"blackforest/internal/dataset"
	"blackforest/internal/profiler"
)

// DefaultMinCompleteness is the default column-completeness threshold for
// degraded collections: counters observed in fewer than this fraction of
// runs are dropped from the frame; counters at or above it are kept with
// missing cells mean-imputed.
const DefaultMinCompleteness = 0.8

// DegradedColumn records what happened to one incomplete counter column.
type DegradedColumn struct {
	Name string `json:"name"`
	// Completeness is the fraction of runs that reported the counter.
	Completeness float64 `json:"completeness"`
	// Action is "dropped" or "imputed".
	Action string `json:"action"`
	// ImputedValue is the column mean substituted into missing cells
	// (present only when Action is "imputed").
	ImputedValue float64 `json:"imputed_value,omitempty"`
}

// Degradation describes how an incomplete collection was repaired before
// training. It is recorded in the saved model bundle so a served model
// discloses that it was fit on degraded data.
type Degradation struct {
	// MinCompleteness is the threshold that decided drop vs impute.
	MinCompleteness float64 `json:"min_completeness"`
	// Rows is the number of collected runs.
	Rows int `json:"rows"`
	// Columns lists every counter column that was incomplete, sorted by
	// name.
	Columns []DegradedColumn `json:"columns"`
}

// Dropped returns the names of columns removed from the frame.
func (d *Degradation) Dropped() []string { return d.withAction("dropped") }

// Imputed returns the names of columns kept with mean-imputed cells.
func (d *Degradation) Imputed() []string { return d.withAction("imputed") }

func (d *Degradation) withAction(action string) []string {
	if d == nil {
		return nil
	}
	var out []string
	for _, c := range d.Columns {
		if c.Action == action {
			out = append(out, c.Name)
		}
	}
	return out
}

// String renders a one-line summary for CLI warnings.
func (d *Degradation) String() string {
	if d == nil || len(d.Columns) == 0 {
		return "complete collection"
	}
	return fmt.Sprintf("degraded collection over %d runs: %d column(s) dropped (%s), %d imputed (%s) at threshold %g",
		d.Rows, len(d.Dropped()), strings.Join(d.Dropped(), ", "),
		len(d.Imputed()), strings.Join(d.Imputed(), ", "), d.MinCompleteness)
}

// validateDegradation checks a bundle's degradation record so a corrupt
// or hand-edited bundle errors at load instead of reporting nonsense.
func validateDegradation(d *Degradation) error {
	if d == nil {
		return nil
	}
	if d.MinCompleteness < 0 || d.MinCompleteness > 1 || math.IsNaN(d.MinCompleteness) {
		return fmt.Errorf("core: bundle degradation threshold %v out of [0,1]", d.MinCompleteness)
	}
	if d.Rows < 0 {
		return fmt.Errorf("core: bundle degradation has negative row count %d", d.Rows)
	}
	for _, c := range d.Columns {
		if c.Name == "" {
			return fmt.Errorf("core: bundle degradation column with empty name")
		}
		if c.Completeness < 0 || c.Completeness >= 1 || math.IsNaN(c.Completeness) {
			return fmt.Errorf("core: bundle degradation column %q completeness %v out of [0,1)", c.Name, c.Completeness)
		}
		switch c.Action {
		case "dropped":
		case "imputed":
			if math.IsNaN(c.ImputedValue) || math.IsInf(c.ImputedValue, 0) {
				return fmt.Errorf("core: bundle degradation column %q has non-finite imputed value", c.Name)
			}
		default:
			return fmt.Errorf("core: bundle degradation column %q has unknown action %q", c.Name, c.Action)
		}
	}
	return nil
}

// Tabulate is the one code path that turns profiles into a modeling
// frame: one row per profile with its problem characteristics, its
// counters and the response columns time_ms and power_w, every column
// name sorted together. Every batch gets the same checks: profiles must
// share a device and the first profile's characteristic set, and a
// profile may lack one of the batch's counters only if it lists it in
// Dropped. Counters lost that way are repaired per minCompleteness
// (0 selects DefaultMinCompleteness): columns observed in fewer than that
// fraction of runs are dropped, the rest mean-imputed, and the decisions
// are returned as a Degradation — nil when every column is complete.
func Tabulate(profiles []*profiler.Profile, minCompleteness float64) (*dataset.Frame, *Degradation, error) {
	if len(profiles) == 0 {
		return nil, nil, fmt.Errorf("core: no profiles to tabulate")
	}
	if minCompleteness <= 0 {
		minCompleteness = DefaultMinCompleteness
	}
	first := profiles[0]

	// The counter vocabulary is the union of everything any run reported
	// or lost — so a counter dropped from every run is still recorded.
	names := []string{ResponseColumn, PowerColumn}
	for n := range first.Characteristics {
		names = append(names, n)
	}
	metricSet := make(map[string]bool)
	for i, p := range profiles {
		if p.Device != first.Device {
			return nil, nil, fmt.Errorf("core: mixed devices %s and %s in one frame", first.Device, p.Device)
		}
		if len(p.Characteristics) != len(first.Characteristics) {
			return nil, nil, fmt.Errorf("core: profile %d has %d characteristics, profile 0 has %d",
				i, len(p.Characteristics), len(first.Characteristics))
		}
		for n := range p.Metrics {
			metricSet[n] = true
		}
		for _, n := range p.Dropped {
			metricSet[n] = true
		}
	}
	for n := range metricSet {
		names = append(names, n)
	}
	sort.Strings(names)

	rows := len(profiles)
	deg := &Degradation{MinCompleteness: minCompleteness, Rows: rows}
	f := dataset.New()
	for _, name := range names {
		col := make([]float64, rows)
		_, isChar := first.Characteristics[name]
		switch {
		case name == ResponseColumn:
			for i, p := range profiles {
				col[i] = p.TimeMS
			}
		case name == PowerColumn:
			for i, p := range profiles {
				col[i] = p.PowerW
			}
		case isChar:
			for i, p := range profiles {
				v, ok := p.Characteristics[name]
				if !ok {
					return nil, nil, fmt.Errorf("core: profile %d missing characteristic %q", i, name)
				}
				col[i] = v
			}
		default:
			keep, err := metricColumn(col, profiles, name, minCompleteness, deg)
			if err != nil {
				return nil, nil, err
			}
			if !keep {
				continue
			}
		}
		if err := f.AddColumn(name, col); err != nil {
			return nil, nil, err
		}
	}
	if len(deg.Columns) == 0 {
		deg = nil
	}
	return f, deg, nil
}

// metricColumn fills col with one counter's values, mean-imputing cells
// lost to dropout, and reports whether to keep the column: too few runs
// reported it otherwise. Either repair is recorded in deg. A cell missing
// from a profile that does not list the counter in Dropped is an error.
func metricColumn(col []float64, profiles []*profiler.Profile, name string, minCompleteness float64, deg *Degradation) (bool, error) {
	present := make([]bool, len(profiles))
	n, sum := 0, 0.0
	for i, p := range profiles {
		v, ok := p.Metrics[name]
		if !ok {
			if !slices.Contains(p.Dropped, name) {
				return false, fmt.Errorf("core: profile %d missing metric %q", i, name)
			}
			continue
		}
		col[i], present[i] = v, true
		n++
		sum += v
	}
	if n == len(profiles) {
		return true, nil
	}
	completeness := float64(n) / float64(len(profiles))
	if completeness < minCompleteness {
		deg.Columns = append(deg.Columns, DegradedColumn{
			Name: name, Completeness: completeness, Action: "dropped",
		})
		return false, nil
	}
	mean := sum / float64(n)
	if math.IsNaN(mean) || math.IsInf(mean, 0) {
		return false, fmt.Errorf("core: column %q mean is not finite; cannot impute", name)
	}
	for i := range col {
		if !present[i] {
			col[i] = mean
		}
	}
	deg.Columns = append(deg.Columns, DegradedColumn{
		Name: name, Completeness: completeness, Action: "imputed", ImputedValue: mean,
	})
	return true, nil
}
