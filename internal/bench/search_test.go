package bench

import "testing"

// TestE12RankingQuality is the retrieval acceptance gate: on held-out
// generated worlds, exact-name queries must put the named entity first
// at least 95% of the time, and synonym-name queries must surface the
// partner in the top 5 at least 80% of the time.
func TestE12RankingQuality(t *testing.T) {
	rs, err := e12r.Run(e12r.Points[e12r.Quick:], 1)
	if err != nil {
		t.Fatal(err)
	}
	q := rs[0].Extra
	if q["exact_probes"] == 0 || q["syn_probes"] == 0 {
		t.Fatalf("degenerate probe sets: %v", q)
	}
	if q["hit_at_1"] < 0.95 {
		t.Errorf("exact-name hit@1 = %.3f (%g probes), want >= 0.95", q["hit_at_1"], q["exact_probes"])
	}
	if q["syn_hit_at_5"] < 0.80 {
		t.Errorf("synonym hit@5 = %.3f (%g probes), want >= 0.80", q["syn_hit_at_5"], q["syn_probes"])
	}
	if q["mrr_at_10"] < q["hit_at_1"] {
		t.Errorf("MRR@10 %.3f below hit@1 %.3f: reciprocal ranks are broken", q["mrr_at_10"], q["hit_at_1"])
	}
}

// TestE12SearchScaleSmoke is the E12 smoke: a 20k-fact scale world
// builds a non-empty index.
func TestE12SearchScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale world in -short mode")
	}
	for _, r := range smoke(t, "E12") {
		if r.Experiment != "E12_IndexBuild" {
			continue
		}
		for _, k := range []string{"indexed_entities", "tokens", "index_bytes"} {
			if r.Extra[k] <= 0 {
				t.Errorf("index %s = %g", k, r.Extra[k])
			}
		}
	}
}
