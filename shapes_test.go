package lsdb_test

// Shape tests: the qualitative claims recorded in EXPERIMENTS.md,
// asserted programmatically on the experiment registry's worlds and
// ops at scaled-down points. These do not check absolute timings
// (machine-dependent) but the *relations* between strategies — who
// wins, what grows, where behaviour changes.

import (
	"testing"
	"time"

	"repro/internal/bench"
)

// setup builds experiment name's world at p.
func setup(t *testing.T, name string, p bench.Point) (*bench.Experiment, *bench.Fixture) {
	t.Helper()
	e := bench.Lookup(name)
	f, err := e.Setup(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.Close != nil {
		t.Cleanup(f.Close)
	}
	return e, f
}

// best is the fastest of reps single runs of op: the least noisy
// estimate of its cost.
func best(reps int, op bench.Op) time.Duration {
	min := time.Duration(1<<62 - 1)
	for i := 0; i < reps; i++ {
		if d := op.Time(1); d < min {
			min = d
		}
	}
	return min
}

// value runs op once and returns one of the values it reports.
func value(op bench.Op, key string) float64 {
	op.Run(1)
	return op.Values()[key]
}

// E1 shape: the indexed heap answers "everything about X" faster than
// the schema-blind relational scan.
func TestShapeE1BrowsingBeatsScan(t *testing.T) {
	e, f := setup(t, "E1", bench.Point{"students": 1000})
	heap := best(20, e.Op(f, "E1_Everything/neighborhood"))
	scan := best(20, e.Op(f, "E1_Everything/relational_scan"))
	if heap*5 >= scan {
		t.Errorf("browsing not clearly faster: heap=%v scan=%v", heap, scan)
	}
}

// E3 shape: the closure is strictly larger than the base, grows with
// taxonomy depth, and shrinks when inheritance is excluded.
func TestShapeE3ClosureGrowth(t *testing.T) {
	sizes := map[int]float64{}
	for _, d := range []int{2, 3, 4} {
		e, f := setup(t, "E3", bench.Point{"depth": d})
		full := e.Op(f, "E3_Closure/full").Values()
		base, closure := full["base_facts"], full["closure_facts"]
		if closure <= base {
			t.Errorf("depth %d: closure %g not larger than base %g", d, closure, base)
		}
		sizes[d] = closure
		if got := e.Op(f, "E3_Closure/no_inheritance").Values()["closure_facts"]; got >= closure {
			t.Errorf("depth %d: excluding inheritance did not shrink closure (%g >= %g)", d, got, closure)
		}
	}
	if !(sizes[2] < sizes[3] && sizes[3] < sizes[4]) {
		t.Errorf("closure sizes not increasing with depth: %v", sizes)
	}
}

// E5 shape: composition path counts are monotone in limit(n), zero at
// n=1.
func TestShapeE5CompositionMonotone(t *testing.T) {
	prev := -1.0
	for _, n := range []int{1, 2, 3, 4} {
		e, f := setup(t, "E5", bench.Point{"limit": n})
		count := value(e.Op(f, "E5_Composition/paths"), "paths")
		if n == 1 && count != 0 {
			t.Errorf("limit 1 found %g paths", count)
		}
		if count < prev {
			t.Errorf("paths shrank: limit %d -> %g paths (prev %g)", n, count, prev)
		}
		prev = count
	}
}

// E6 shape: neighborhood cost tracks degree, not database size.
func TestShapeE6NavigationDegreeNotSize(t *testing.T) {
	const op = "E6_Neighborhood/rank=200"
	perDegree := func(facts int) (float64, float64) {
		e, f := setup(t, "E6", bench.Point{"facts": facts})
		o := e.Op(f, op)
		deg := o.Values()["degree"]
		if deg == 0 {
			t.Skipf("rank-200 entity unconnected at %d facts", facts)
		}
		return float64(best(30, o)) / deg, deg
	}
	perS, degS := perDegree(2000)
	perB, degB := perDegree(20000)
	// A 10× larger database must not slow per-degree neighborhood
	// retrieval by more than generous noise allows.
	if perB > perS*8 {
		t.Errorf("per-degree neighborhood cost scaled with database size: %.0fns vs %.0fns (deg %g vs %g)",
			perS, perB, degS, degB)
	}
}

// E7 shape: steady-state materialized matching beats *cold* bounded
// on-demand matching by a wide margin, and the cross-query subgoal
// cache closes most of that gap for repeated queries.
func TestShapeE7MaterializedWins(t *testing.T) {
	e, f := setup(t, "E7", bench.Point{"depth": 4})
	warm := best(20, e.Op(f, "E7_OnDemandBounded/warm"))
	mat := best(20, e.Op(f, "E7_Materialized"))
	cold := best(3, e.Op(f, "E7_OnDemandBounded/cold"))
	if mat*10 >= cold {
		t.Errorf("materialized not clearly faster than cold on-demand: %v vs %v", mat, cold)
	}
	if warm*2 >= cold {
		t.Errorf("subgoal cache not clearly faster than cold on-demand: %v vs %v", warm, cold)
	}
}

// E8 shape: single-dimension retraction waves equal the
// generalization distance.
func TestShapeE8ClimbDepth(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		e, f := setup(t, "E8", bench.Point{"branching": 2, "depth": d})
		if waves := value(e.Op(f, "E8_Probe/climb"), "waves"); waves != float64(d) {
			t.Errorf("depth %d: %g waves", d, waves)
		}
	}
}
