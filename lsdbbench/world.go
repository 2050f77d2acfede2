package main

import (
	"fmt"

	lsdb "repro"
	"repro/internal/dataset"
)

// World scale: the E6/E7r structured browse world scaled down to 500
// entities and 5,000 generated facts (see README.md for why not the
// 20k-fact E7r world). The world is fixed: the workload seed varies the
// operations, never the data, so runs with different seeds measure the
// same database.
const (
	worldEntities = 500
	worldFacts    = 5000
	worldRels     = 8
	worldSeed     = 17
)

// buildWorld returns the browse world in memory and its entity names
// in Zipf rank order (names[0] is the biggest hub). It is
// bench.OnDemandWorld's overlay on dataset.Graph at this scale: a
// relationship hierarchy, inversions, and a class taxonomy K0..K5 with
// every tenth entity a member.
func buildWorld() (*lsdb.Database, []string) {
	db, names := dataset.Graph(dataset.GraphConfig{
		Entities: worldEntities, Facts: worldFacts, Relationships: worldRels, Seed: worldSeed,
	})
	for i := 1; i < worldRels; i += 2 {
		db.MustAssert(rel(i), "isa", rel(i-1))
	}
	for i := 0; i < 4; i++ {
		db.MustAssert(rel(i), "inv", fmt.Sprintf("REL-INV-%02d", i))
	}
	for j := 1; j < 6; j++ {
		db.MustAssert(fmt.Sprintf("K%d", j), "isa", fmt.Sprintf("K%d", j-1))
	}
	for i := 0; i < len(names); i += 10 {
		db.MustAssert(names[i], "in", fmt.Sprintf("K%d", i%6))
	}
	return db, names
}

func rel(i int) string { return fmt.Sprintf("REL-%02d", i) }
