package bench

import (
	"runtime"
	"testing"

	"repro/internal/ops"
)

// The lsdbbench world: BrowseWorld at the benchmark's scale.
const (
	benchWorldEntities = 500
	benchWorldFacts    = 5000
)

// allocsPerAnswer bounds read-path allocations per answer entry: an
// allocation per comparison or per element would be at least one per
// entry, while name sorts take two slices per sorted list — one list
// per relationship group in Neighborhood (75 allocations for the hub's
// 2,930 entries in 22 groups), one in Try (16). Per-group hash sets
// came to 373.
const allocsPerAnswer = 1.0 / 32

// TestBrowseReadAllocs bounds the allocations of Neighborhood and Try
// on the benchmark world's hub (2,930 entries each) to a small
// fraction of the answer size.
func TestBrowseReadAllocs(t *testing.T) {
	db, names := BrowseWorld(benchWorldEntities, benchWorldFacts)
	hub := db.Entity(names[0])
	b := db.Browser()
	eng := db.Engine()
	for _, c := range []struct {
		op   string
		size int
		run  func()
	}{
		{"Neighborhood", b.Neighborhood(hub).Degree(), func() { b.Neighborhood(hub) }},
		{"Try", len(ops.Try(eng, hub)), func() { ops.Try(eng, hub) }},
	} {
		allocs := testing.AllocsPerRun(10, c.run)
		t.Logf("%s(%s): %d entries, %.0f allocs", c.op, names[0], c.size, allocs)
		if c.size < 1000 {
			t.Errorf("%s(%s) answered %d entries; the hub should have thousands", c.op, names[0], c.size)
		}
		if bound := allocsPerAnswer * float64(c.size); allocs > bound {
			t.Errorf("%s(%s): %.0f allocs for %d entries, bound %.0f", c.op, names[0], allocs, c.size, bound)
		}
	}
}

// maxClosureBytesPerFact bounds a published closure's heap per fact.
// On the benchmark world the posting index takes ~30 B and the
// provenance columns ~16 (a rule code, a premise offset and two
// premise references, 4 bytes each): 46 B in all, where a provenance
// map entry and its premise slice once took ~110 more.
const maxClosureBytesPerFact = 64

// TestClosureRetainedBytes bounds the heap one published closure of
// the benchmark world retains — its posting index plus provenance
// columns — per closure fact.
func TestClosureRetainedBytes(t *testing.T) {
	db, _ := BrowseWorld(benchWorldEntities, benchWorldFacts)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n := db.ClosureLen()
	db.Engine().Check() // waits for the provenance columns
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(db)
	perFact := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
	t.Logf("closure of %d facts retains %.1f B/fact", n, perFact)
	if perFact > maxClosureBytesPerFact {
		t.Errorf("closure retains %.1f B/fact, bound %d", perFact, maxClosureBytesPerFact)
	}
}
