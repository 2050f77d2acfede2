package bench

import (
	"testing"
	"time"
)

// TestE11ReplicaServesNavigationMix is the E11 smoke: a follower
// bootstrapped from the primary's snapshot serves the exact E7
// navigation mix (same degrees retrieved) and does so at standalone
// speed. The committed BENCH json documents the ≥0.8 read-fraction
// headline; here the floor is looser so machine noise can't flake
// the suite — a real regression (follower reads touching the
// replication path) would land far below it.
func TestE11ReplicaServesNavigationMix(t *testing.T) {
	if testing.Short() {
		t.Skip("E11 replicates a 20k-fact world")
	}
	w, err := newE11World(20000)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()

	if got, want := w.follower.Len(), w.primary.Len(); got != want {
		t.Fatalf("follower holds %d facts, primary %d", got, want)
	}
	const depth = 2
	strail, ftrail := e11Trail(w.standalone), e11Trail(w.follower)
	if got, want := replay(w.follower, depth, ftrail), replay(w.standalone, depth, strail); got != want {
		t.Fatalf("follower navigation degree %d, standalone %d", got, want)
	}

	base := Op{Run: each(func() { replay(w.standalone, depth, strail) })}.Time(10)
	foll := Op{Run: each(func() { replay(w.follower, depth, ftrail) })}.Time(10)
	if frac := float64(base) / float64(foll); frac < 0.5 {
		t.Errorf("follower read fraction %.2f of standalone, want well above 0.5", frac)
	}

	for i := 0; i < 20; i++ {
		d, err := w.lag(i)
		if err != nil {
			t.Fatal(err)
		}
		if d > 5*time.Second {
			t.Errorf("write %d took %s to reach the follower", i, d)
		}
	}
	if got := w.fl.AppliedLSN(); got != w.primary.LSN() {
		t.Errorf("after lag run: follower applied %d, primary LSN %d", got, w.primary.LSN())
	}
}
