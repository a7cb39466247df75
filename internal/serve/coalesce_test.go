package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCoalescedBitIdenticalToSequential is the coalescing acceptance test:
// K concurrent single predicts queued into one micro-batch must answer with
// time_ms bit-identical (math.Float64bits) to K sequential per-row
// PredictDetail calls on a coalescing-free server's model. The flat batch path accumulates tree
// contributions in the same order as the solo walk, so coalescing changes
// scheduling, never bits.
func TestCoalescedBitIdenticalToSequential(t *testing.T) {
	ps := testScaler(t, 3)
	const k = 12
	sizes := make([]float64, k)
	for i := range sizes {
		sizes[i] = float64(64 * (i + 1))
	}

	// Sequential reference on a plain server (no coalescing, no cache).
	sref, err := New(Config{Scaler: ps, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, k)
	refSnap := sref.registry.defaultSnapshot()
	for i, size := range sizes {
		tm, _, err := refSnap.scaler.PredictDetail(map[string]float64{"size": size})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = math.Float64bits(tm)
	}

	// Coalescing server: a wide window so all K requests join one batch.
	s, err := New(Config{Scaler: ps, CacheSize: -1, BatchWindow: 200 * time.Millisecond, BatchMaxSize: k})
	if err != nil {
		t.Fatal(err)
	}
	snap := s.registry.defaultSnapshot()
	if snap.coal == nil {
		t.Fatal("BatchWindow did not enable the coalescer")
	}
	got := make([]uint64, k)
	var wg sync.WaitGroup
	for i := range sizes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			preds, err := s.predict(context.Background(), snap, []map[string]float64{{"size": sizes[i]}})
			if err != nil {
				t.Errorf("row %d: %v", i, err)
				return
			}
			got[i] = math.Float64bits(preds[0].TimeMS)
		}(i)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("size %g: coalesced bits %x != sequential bits %x",
				sizes[i], got[i], want[i])
		}
	}

	// Everything drained through micro-batches (reaching BatchMaxSize
	// flushes immediately, so at least one real multi-row batch formed).
	batchN, batchSum := s.batchSize.Count(), int64(s.batchSize.Sum())
	if batchSum != k {
		t.Fatalf("batches drained %d rows, want %d", batchSum, k)
	}
	if batchN >= k {
		t.Fatalf("%d batches for %d rows: nothing coalesced", batchN, k)
	}
}

// TestCoalescerMaxSizeFlushesImmediately: reaching BatchMaxSize must drain
// without waiting out the window.
func TestCoalescerMaxSizeFlushesImmediately(t *testing.T) {
	drained := make(chan int, 4)
	c := newCoalescer(time.Hour, 4, func(reqs []*coalesceReq) {
		drained <- len(reqs)
		for _, rq := range reqs {
			close(rq.done)
		}
	})
	for i := 0; i < 4; i++ {
		c.enqueue(&coalesceReq{done: make(chan struct{})})
	}
	select {
	case n := <-drained:
		if n != 4 {
			t.Fatalf("drained %d requests, want 4", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("full batch never drained despite hour-long window")
	}
}

// TestCoalescerWindowFlushesPartialBatch: a lone request must drain once
// the window expires, not wait for batch-mates forever.
func TestCoalescerWindowFlushesPartialBatch(t *testing.T) {
	drained := make(chan int, 1)
	c := newCoalescer(10*time.Millisecond, 64, func(reqs []*coalesceReq) {
		drained <- len(reqs)
		for _, rq := range reqs {
			close(rq.done)
		}
	})
	c.enqueue(&coalesceReq{done: make(chan struct{})})
	select {
	case n := <-drained:
		if n != 1 {
			t.Fatalf("drained %d requests, want 1", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("window expiry never drained the partial batch")
	}
}

// TestCoalescedServerAnswersOverHTTP: with coalescing on, the HTTP path
// still answers every single predict correctly (each equal to the direct
// computation) and the batch-size histogram counts the drains.
func TestCoalescedServerAnswersOverHTTP(t *testing.T) {
	ps := testScaler(t, 3)
	_, hs := newTestServer(t, ps, Config{BatchWindow: time.Millisecond, CacheSize: -1})

	for _, size := range []float64{64, 320, 1024, 2048} {
		want, _, err := ps.PredictDetail(map[string]float64{"size": size})
		if err != nil {
			t.Fatal(err)
		}
		resp, raw := postPredict(t, hs.URL, fmt.Sprintf(`{"chars":{"size":%g}}`, size))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("size %g: status %d: %s", size, resp.StatusCode, raw)
		}
		var pr PredictResponse
		if err := json.Unmarshal(raw, &pr); err != nil {
			t.Fatal(err)
		}
		if got := pr.Predictions[0].TimeMS; got != want {
			t.Fatalf("size %g: coalesced HTTP answer %v != direct %v", size, got, want)
		}
	}

	text := scrapeMetrics(t, hs.URL)
	if !strings.Contains(text, "bfserve_batch_size_count 4") {
		t.Fatalf("metrics missing bfserve_batch_size_count 4:\n%s", text)
	}
	if !strings.Contains(text, `bfserve_predictions_total{model="default"} 4`) {
		t.Fatalf("coalesced predicts not counted per model:\n%s", text)
	}
}

// TestCoalescedBadRowFailsAlone: an invalid vector queued into a micro-batch
// must fail with a 400 naming the problem, without failing its batch-mates.
func TestCoalescedBadRowFailsAlone(t *testing.T) {
	ps := testScaler(t, 3)
	s, hs := newTestServer(t, ps, Config{BatchWindow: 50 * time.Millisecond, BatchMaxSize: 2, CacheSize: -1})
	snap := s.registry.defaultSnapshot()

	// Enqueue one good and one bad request concurrently so they share a
	// batch (BatchMaxSize 2 drains the pair immediately).
	type res struct {
		p   Prediction
		err error
	}
	results := make(chan res, 2)
	predictOne := func(chars map[string]float64) {
		preds, err := s.predict(context.Background(), snap, []map[string]float64{chars})
		var p Prediction
		if err == nil {
			p = preds[0]
		}
		results <- res{p, err}
	}
	go predictOne(map[string]float64{"size": 512})
	go predictOne(map[string]float64{"wrong_char": 1})
	var okCount, errCount int
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				errCount++
			} else {
				okCount++
				want, _, err := ps.PredictDetail(map[string]float64{"size": 512})
				if err != nil {
					t.Fatal(err)
				}
				if r.p.TimeMS != want {
					t.Fatalf("good row answered %v, want %v", r.p.TimeMS, want)
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatal("coalesced request never completed")
		}
	}
	if okCount != 1 || errCount != 1 {
		t.Fatalf("got %d ok / %d errors, want 1/1", okCount, errCount)
	}

	// Over HTTP the bad row maps to a 400 naming the missing characteristic.
	resp, raw := postPredict(t, hs.URL, `{"chars":{"bogus":1}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad coalesced predict: status %d: %s", resp.StatusCode, raw)
	}
	var e errorResponse
	if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error, "row 0") {
		t.Fatalf("400 body: %s", raw)
	}
}
