package serve

import (
	"math"
	"strconv"
)

// vectorKey builds the canonical cache key for a characteristic vector:
// the exact bit patterns of the values in charNames order. Two vectors map
// to the same key iff every characteristic the model reads is bit-identical,
// so a cache hit returns exactly what recomputation would.
func vectorKey(charNames []string, chars map[string]float64) (string, bool) {
	buf := make([]byte, 0, len(charNames)*17)
	for _, n := range charNames {
		v, ok := chars[n]
		if !ok {
			return "", false
		}
		buf = strconv.AppendUint(buf, math.Float64bits(v), 16)
		buf = append(buf, '|')
	}
	return string(buf), true
}
