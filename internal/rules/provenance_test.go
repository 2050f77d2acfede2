package rules_test

import (
	"fmt"
	"testing"

	lsdb "repro"
	"repro/internal/gen"
	"repro/internal/rules"
)

// replayChecked replays w onto a fresh tracked database, comparing the
// provenance columns with the map reference every window ops and at
// the end, so publishes cover change windows of that many ops.
func replayChecked(t *testing.T, w *gen.World, window int) *rules.ProvenanceReference {
	t.Helper()
	db := lsdb.New()
	ref := rules.TrackProvenance(db.Engine())
	for i, op := range w.Ops {
		gen.ApplyOp(db, op)
		if (i+1)%window == 0 || i == len(w.Ops)-1 {
			if err := ref.Check(); err != nil {
				t.Fatalf("after op %d (%s): %v", i, op, err)
			}
		}
	}
	return ref
}

// TestProvenanceMatchesMapReference is the provenance columns' oracle:
// on generated and churned worlds, Explain and Derive agree with the
// map-based recording on every closure fact after full, incremental
// and delete-and-rederive publishes.
func TestProvenanceMatchesMapReference(t *testing.T) {
	var full, incr, dred int
	run := func(name string, seed int64, w *gen.World, window int) {
		t.Run(fmt.Sprintf("%s/seed=%d/window=%d", name, seed, window), func(t *testing.T) {
			ref := replayChecked(t, w, window)
			full += ref.Full
			incr += ref.Incremental
			dred += ref.Deletes
		})
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, window := range []int{1, 4} {
			run("small", seed, gen.Generate(seed, gen.Small()), window)
			run("small-churn", seed, gen.Churn(seed, gen.SmallChurn()), window)
		}
	}
	// Deeper delete cones; a check after every op costs seconds here.
	for seed := int64(1); seed <= 3; seed++ {
		run("medium-churn", seed, gen.Churn(seed, gen.MediumChurn()), 4)
	}
	t.Logf("publishes: %d full, %d incremental, %d delete-and-rederive", full, incr, dred)
	if full == 0 || incr == 0 || dred == 0 {
		t.Errorf("oracle did not cover every build path: %d full, %d incremental, %d delete-and-rederive", full, incr, dred)
	}
}

// TestProvenanceVirtualPremises covers premises the closure does not
// hold: a user rule whose body joins a virtual comparison, maintained
// through inserts and retractions.
func TestProvenanceVirtualPremises(t *testing.T) {
	db := lsdb.New()
	ref := rules.TrackProvenance(db.Engine())
	if err := db.AddRule("senior", "(?x, AGE, ?a) & (?a, >, 30) => (?x, in, SENIOR)"); err != nil {
		t.Fatal(err)
	}
	db.MustAssert("SENIOR", "isa", "PERSON")
	db.MustAssert("PERSON", "HAS", "NAME")
	steps := []func(){
		func() { db.MustAssert("ANN", "AGE", "41") },
		func() { db.MustAssert("BOB", "AGE", "25"); db.MustAssert("CAL", "AGE", "33") },
		func() { db.Retract("ANN", "AGE", "41") },
		func() { db.MustAssert("BOB", "AGE", "52"); db.Retract("CAL", "AGE", "33") },
		func() { db.MustAssert("ANN", "AGE", "41") },
	}
	for i, step := range steps {
		step()
		if err := ref.Check(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if d := db.Engine().Derive(db.Universe().NewFact("ANN", "in", "SENIOR")); d == nil || d.Rule != "senior" || len(d.Premises) != 2 {
		t.Fatalf("Derive(ANN in SENIOR) = %+v", d)
	}
	if ref.Incremental == 0 || ref.Deletes == 0 {
		t.Errorf("publishes: %d incremental, %d delete-and-rederive; want both", ref.Incremental, ref.Deletes)
	}
}
