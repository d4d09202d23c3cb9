package manager

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"socialtrust/internal/fault"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation/ebay"
	"socialtrust/internal/xrand"
)

// batchTrace builds a reproducible mixed batch of ratings over n nodes.
func batchTrace(seed uint64, n, count int) []rating.Rating {
	rng := xrand.New(seed)
	rs := make([]rating.Rating, 0, count)
	for i := 0; i < count; i++ {
		rater := rng.Intn(n)
		ratee := rng.Intn(n)
		if ratee == rater {
			ratee = (ratee + 1) % n
		}
		v := 1.0
		if rng.Float64() < 0.25 {
			v = -1
		}
		rs = append(rs, rating.Rating{Rater: rater, Ratee: ratee, Value: v, Cycle: i / 50})
	}
	return rs
}

// TestSubmitBatchMatchesPerRatingSubmit pins the batched path's semantics:
// the same trace ingested via SubmitBatch and via one Submit per rating must
// produce identical merged interval snapshots and identical reputations.
func TestSubmitBatchMatchesPerRatingSubmit(t *testing.T) {
	const n, k = 120, 8
	trace := batchTrace(3, n, 2000)

	single, err := New(n, k, ebay.New(n))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for _, r := range trace {
		if err := single.Submit(r); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	wantReps := single.EndInterval()

	batched, err := New(n, k, ebay.New(n))
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()
	// Uneven chunk sizes exercise partial shard coverage per call.
	for lo := 0; lo < len(trace); lo += 317 {
		hi := lo + 317
		if hi > len(trace) {
			hi = len(trace)
		}
		if errs := batched.SubmitBatch(trace[lo:hi]); errs != nil {
			t.Fatalf("SubmitBatch: %v", errs)
		}
	}
	gotReps := batched.EndInterval()

	if !reflect.DeepEqual(gotReps, wantReps) {
		t.Fatalf("batched reputations diverge from per-rating submit")
	}
}

// TestSubmitBatchReplicatedMatchesPerRating runs the same equivalence under
// an armed (but quiet) fault plan: replica mirroring, retry machinery and
// per-rating verdict draws active on both paths.
func TestSubmitBatchReplicatedMatchesPerRating(t *testing.T) {
	const n, k = 120, 8
	trace := batchTrace(7, n, 1500)

	run := func(batch bool) []float64 {
		o, err := NewWithOptions(n, k, ebay.New(n), Options{Fault: alwaysOnPlan(t, fault.Config{}, k)})
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		if batch {
			if errs := o.SubmitBatch(trace); errs != nil {
				t.Fatalf("SubmitBatch: %v", errs)
			}
		} else {
			for _, r := range trace {
				if err := o.Submit(r); err != nil {
					t.Fatalf("Submit: %v", err)
				}
			}
		}
		return o.EndInterval()
	}

	if got, want := run(true), run(false); !reflect.DeepEqual(got, want) {
		t.Fatalf("replicated batched reputations diverge from per-rating submit")
	}
}

// TestSubmitBatchPerRatingValidation checks the error slice is
// index-aligned: invalid entries fail individually while the rest of the
// batch lands.
func TestSubmitBatchPerRatingValidation(t *testing.T) {
	const n, k = 40, 4
	o, err := New(n, k, ebay.New(n))
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	errs := o.SubmitBatch([]rating.Rating{
		{Rater: 0, Ratee: 1, Value: 1},
		{Rater: 0, Ratee: n + 5, Value: 1}, // out of range
		{Rater: 2, Ratee: 3, Value: 1},
	})
	if errs == nil {
		t.Fatal("want a non-nil error slice for a batch with an invalid entry")
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("valid entries failed: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Fatal("out-of-range ratee accepted")
	}
	reps := o.EndInterval()
	if len(reps) != n {
		t.Fatalf("got %d reputations, want %d", len(reps), n)
	}
}

// TestSubmitBatchFTValidation covers the fault-mode validation set (rater
// range and self-ratings are rejected client-side, as in submitFT).
func TestSubmitBatchFTValidation(t *testing.T) {
	const n, k = 40, 4
	o, err := NewWithOptions(n, k, ebay.New(n), Options{Fault: alwaysOnPlan(t, fault.Config{}, k)})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	errs := o.SubmitBatch([]rating.Rating{
		{Rater: 0, Ratee: 1, Value: 1},
		{Rater: 5, Ratee: 5, Value: 1},  // self-rating
		{Rater: -1, Ratee: 2, Value: 1}, // bad rater
	})
	if errs == nil || errs[0] != nil || errs[1] == nil || errs[2] == nil {
		t.Fatalf("unexpected validation outcome: %v", errs)
	}
}

// TestSubmitBatchAllDropped verifies a total message loss surfaces as
// per-rating timeouts after the retry budget, matching the unbatched path.
func TestSubmitBatchAllDropped(t *testing.T) {
	const n, k = 40, 4
	o, err := NewWithOptions(n, k, ebay.New(n), Options{
		Fault:        alwaysOnPlan(t, fault.Config{Drop: 1}, k),
		RetryBackoff: 1, // microscopic: keep the test fast
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	errs := o.SubmitBatch(batchTrace(1, n, 20))
	if errs == nil {
		t.Fatal("want timeouts when every delivery is dropped")
	}
	for i, e := range errs {
		if !errors.Is(e, ErrTimeout) {
			t.Fatalf("errs[%d] = %v, want ErrTimeout", i, e)
		}
	}
}

// TestSubmitBatchDeferredLandsAtDrain checks delay-injected batch entries
// are acknowledged on receipt and folded in by the interval drain.
func TestSubmitBatchDeferredLandsAtDrain(t *testing.T) {
	const n, k = 40, 4
	o, err := NewWithOptions(n, k, ebay.New(n), Options{
		Fault: alwaysOnPlan(t, fault.Config{Delay: 1}, k),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if errs := o.SubmitBatch([]rating.Rating{{Rater: 0, Ratee: 1, Value: 1}}); errs != nil {
		t.Fatalf("SubmitBatch: %v", errs)
	}
	reps := o.EndInterval()
	if reps[1] <= reps[2] {
		t.Fatalf("deferred rating never reached the ledger: rep[1]=%v rep[2]=%v", reps[1], reps[2])
	}
}

// TestSubmitRejectsInvalidRatings: rater, ratee and self-rating are checked
// once at overlay entry, in both modes and through both entry points, so no
// shard ever sees a rating its ledger would panic on. The valid rating
// riding in the same batch still lands.
func TestSubmitRejectsInvalidRatings(t *testing.T) {
	const n, k = 4, 2
	rows := []struct {
		name string
		r    rating.Rating
		want string
	}{
		{"rater-negative", rating.Rating{Rater: -1, Ratee: 1, Value: 1}, "rater -1 out of range"},
		{"rater-n", rating.Rating{Rater: n, Ratee: 1, Value: 1}, "rater 4 out of range"},
		{"ratee-n", rating.Rating{Rater: 1, Ratee: n, Value: 1}, "ratee 4 out of range"},
		{"self", rating.Rating{Rater: 2, Ratee: 2, Value: 1}, "self-rating by node 2 rejected"},
	}
	valid := rating.Rating{Rater: 0, Ratee: 1, Value: 1}
	for _, faulty := range []bool{false, true} {
		for _, batch := range []bool{false, true} {
			for _, row := range rows {
				name := fmt.Sprintf("fault=%v/batch=%v/%s", faulty, batch, row.name)
				t.Run(name, func(t *testing.T) {
					var opts Options
					if faulty {
						opts.Fault = alwaysOnPlan(t, fault.Config{}, k)
					}
					o, err := NewWithOptions(n, k, ebay.New(n), opts)
					if err != nil {
						t.Fatal(err)
					}
					defer o.Close()
					var got error
					if batch {
						errs := o.SubmitBatch([]rating.Rating{row.r, valid})
						if errs == nil || errs[1] != nil {
							t.Fatalf("SubmitBatch errors = %v, want only entry 0 rejected", errs)
						}
						got = errs[0]
					} else {
						got = o.Submit(row.r)
						if err := o.Submit(valid); err != nil {
							t.Fatalf("valid Submit after a rejected one: %v", err)
						}
					}
					if got == nil || !strings.Contains(got.Error(), row.want) {
						t.Fatalf("error = %v, want %q", got, row.want)
					}
					if reps := o.EndInterval(); reps[1] <= reps[2] {
						t.Fatalf("valid rating missing after the rejection: rep[1]=%v rep[2]=%v", reps[1], reps[2])
					}
				})
			}
		}
	}
}
