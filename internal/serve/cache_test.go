package serve

import (
	"math"
	"testing"
)

func TestVectorKey(t *testing.T) {
	names := []string{"size", "block_size"}
	k1, ok := vectorKey(names, map[string]float64{"size": 64, "block_size": 256})
	if !ok {
		t.Fatal("complete vector not keyed")
	}
	k2, _ := vectorKey(names, map[string]float64{"block_size": 256, "size": 64})
	if k1 != k2 {
		t.Fatal("key depends on map iteration order")
	}
	k3, _ := vectorKey(names, map[string]float64{"size": 65, "block_size": 256})
	if k1 == k3 {
		t.Fatal("different vectors share a key")
	}
	// Extra characteristics the model doesn't read must not change the key:
	// the prediction function ignores them, so the cache must too.
	k4, _ := vectorKey(names, map[string]float64{"size": 64, "block_size": 256, "extra": 1})
	if k1 != k4 {
		t.Fatal("unread characteristic changed the key")
	}
	if _, ok := vectorKey(names, map[string]float64{"size": 64}); ok {
		t.Fatal("incomplete vector keyed")
	}
	// +0 and -0 are distinct bit patterns; treating them as distinct keys is
	// safe (worst case a duplicate cache entry), but they must both key.
	kp, okp := vectorKey(names, map[string]float64{"size": 0, "block_size": 1})
	kn, okn := vectorKey(names, map[string]float64{"size": math.Copysign(0, -1), "block_size": 1})
	if !okp || !okn {
		t.Fatal("zero-valued vectors not keyed")
	}
	if kp == kn {
		t.Fatal("+0 and -0 collided despite distinct bit patterns")
	}
}
