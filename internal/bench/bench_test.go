package bench

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// BenchmarkExperiments is the go test -bench entry for the registry:
// one sub-benchmark per experiment, point and op, with the op's values
// and counter deltas reported as metrics. -short runs the quick points.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range Experiments {
		b.Run(e.Name, func(b *testing.B) {
			for _, p := range e.Selected(testing.Short(), math.MaxInt) {
				b.Run(p.String(), func(b *testing.B) {
					f, err := e.Setup(p)
					if err != nil {
						b.Fatal(err)
					}
					if f.Close != nil {
						defer f.Close()
					}
					for i, name := range e.Ops {
						op := f.Ops[i]
						b.Run(name, func(b *testing.B) {
							before := snapshot(f.Metrics)
							b.ReportAllocs()
							b.ResetTimer()
							op.Run(b.N)
							b.StopTimer()
							for k, v := range e.extra(op, f.Metrics, before) {
								b.ReportMetric(v, k)
							}
						})
					}
				})
			}
		})
	}
}

// smoke runs the named experiment at its quick points, one iteration
// per op, checks that every op produced a record and a table row, and
// applies the experiment's content check.
func smoke(t *testing.T, name string) []Result {
	t.Helper()
	e := Lookup(name)
	rs, err := e.Run(e.Points[:e.Quick], 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := e.Quick * len(e.Ops); len(rs) != want {
		t.Fatalf("%s: %d records, want %d", name, len(rs), want)
	}
	for _, r := range rs {
		if r.NsPerOp <= 0 {
			t.Errorf("%s %v: non-positive time", r.Experiment, r.Params)
		}
	}
	checkTable(t, e.Render(rs), len(rs))
	if check := smokeChecks[name]; check != nil {
		check(t, rs)
	}
	return rs
}

// smokeChecks are content checks on an experiment's quick records.
var smokeChecks = map[string]func(t *testing.T, rs []Result){
	// Composition never finds a path at limit 1.
	"E5": func(t *testing.T, rs []Result) {
		for _, r := range rs {
			if r.Params["limit"] == 1 && r.Extra["paths"] != 0 {
				t.Errorf("limit 1 paths = %g", r.Extra["paths"])
			}
		}
	},
	// A pure climb takes exactly one wave per taxonomy level.
	"E8": func(t *testing.T, rs []Result) {
		for _, r := range rs {
			if r.Experiment == "E8_Probe/climb" && r.Extra["waves"] != float64(r.Params["depth"].(int)) {
				t.Errorf("climb waves %g != depth %v", r.Extra["waves"], r.Params["depth"])
			}
		}
	},
}

func checkTable(t *testing.T, out string, rows int) {
	t.Helper()
	// Title + header + separator + rows.
	if lines := strings.Split(strings.TrimRight(out, "\n"), "\n"); len(lines) < 3+rows {
		t.Errorf("table too small (%d lines):\n%s", len(lines), out)
	}
}

// TestE1 … TestE10 and TestE12SearchScaleSmoke carry the smoke of the
// experiment they are named after, and the E10c acceptance test runs
// every E10c op at its full point; TestExperiments smokes the rest of
// the registry.
var ownSmoke = map[string]bool{
	"E1": true, "E2": true, "E3": true, "E4": true, "E5": true, "E6": true,
	"E7": true, "E8": true, "E9": true, "E10": true, "E10c": true, "E12": true,
}

func TestE1(t *testing.T)  { smoke(t, "E1") }
func TestE2(t *testing.T)  { smoke(t, "E2") }
func TestE3(t *testing.T)  { smoke(t, "E3") }
func TestE4(t *testing.T)  { smoke(t, "E4") }
func TestE5(t *testing.T)  { smoke(t, "E5") }
func TestE6(t *testing.T)  { smoke(t, "E6") }
func TestE7(t *testing.T)  { smoke(t, "E7") }
func TestE8(t *testing.T)  { smoke(t, "E8") }
func TestE9(t *testing.T)  { smoke(t, "E9") }
func TestE10(t *testing.T) { smoke(t, "E10") }

func TestExperiments(t *testing.T) {
	for _, e := range Experiments {
		if !ownSmoke[e.Name] {
			t.Run(e.Name, func(t *testing.T) { smoke(t, e.Name) })
		}
	}
}

// TestE10cWarmRetentionAndDeleteMaintenance is the acceptance test for
// dependency-tracked invalidation, on the 20k-fact point: the warm
// subgoal hit rate must stay at or above 50% under sustained
// unrelated-predicate writes, and retracting a single base fact must
// take the delete-propagation repair path rather than rebuilding the
// closure from scratch.
func TestE10cWarmRetentionAndDeleteMaintenance(t *testing.T) {
	if testing.Short() {
		t.Skip("E10c runs a 20k-fact world")
	}
	e := Lookup("E10c")
	rs, err := e.Run(e.Points[e.Quick:], 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := map[string]Result{}
	for _, r := range rs {
		rec[r.Experiment] = r
	}
	unrelated := rec["E10c_UnrelatedWriteChurn"].Extra["warm_hit_rate"]
	related := rec["E10c_RelatedWriteChurn"].Extra["warm_hit_rate"]
	if unrelated < 0.5 {
		t.Errorf("warm hit rate under unrelated-class writes = %.2f, want >= 0.5", unrelated)
	}
	if unrelated < related {
		t.Errorf("unrelated-class churn hit rate %.2f below ∈-class churn %.2f", unrelated, related)
	}
	repair := rec["E10c_DeleteMaintenance"].Extra
	if repair["delete_rebuilds"] < 1 {
		t.Errorf("single-fact retraction did not take the delete-propagation rebuild (delete rebuilds = %g)", repair["delete_rebuilds"])
	}
	if repair["delete_propagations"] < 1 {
		t.Errorf("delete propagations = %g, want >= 1", repair["delete_propagations"])
	}
	checkTable(t, e.Render(rs), 5)
}

// TestRecordsCoverCommittedReport checks, from the registry's
// declarations, that lsdb-bench -json still emits every record name
// and params key of the committed BENCH_PR10.json and every acceptance
// key. Keys an op computes (not a declared counter or ratio) are read
// from a quick run of their experiment.
func TestRecordsCoverCommittedReport(t *testing.T) {
	buf, err := os.ReadFile("../../BENCH_PR10.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed Report
	if err := json.Unmarshal(buf, &committed); err != nil {
		t.Fatal(err)
	}
	owner := map[string]*Experiment{}
	params := map[string]map[string]bool{}
	for _, e := range Experiments {
		for _, name := range e.Ops {
			owner[name] = e
			params[name] = map[string]bool{}
			for _, p := range e.Points {
				for k := range p {
					params[name][k] = true
				}
			}
		}
	}
	for _, r := range committed.Results {
		if owner[r.Experiment] == nil {
			t.Errorf("no registered op emits %s", r.Experiment)
			continue
		}
		for k := range r.Params {
			if !params[r.Experiment][k] {
				t.Errorf("%s lost params key %q", r.Experiment, k)
			}
		}
	}

	quick := map[*Experiment][]Result{}
	for key, record := range map[string]string{
		"warm_hit_rate":       "E10c_UnrelatedWriteChurn",
		"delete_rebuilds":     "E10c_DeleteMaintenance",
		"delete_propagations": "E10c_DeleteMaintenance",
		"fsyncs/op":           "E8_CommitThroughput",
		"read_fraction":       "E11_ReplicaRead/follower",
		"hit_at_1":            "E12_RankingQuality",
		"syn_hit_at_5":        "E12_RankingQuality",
	} {
		e := owner[record]
		if e == nil {
			t.Errorf("no registered op emits %s", record)
			continue
		}
		if declares(e, record, key) {
			continue
		}
		if quick[e] == nil {
			if quick[e], err = e.Run(e.Points[:1], 1); err != nil {
				t.Fatal(err)
			}
		}
		if !computes(quick[e], record, key) {
			t.Errorf("%s does not report %s", record, key)
		}
	}

	if !declares(e7r, "E7_OnDemandRepeated/warm", "speedup_vs_cold") {
		t.Error("E7r does not derive the warm speedup")
	}
	rep := NewReport([]Result{{Experiment: "E7_OnDemandRepeated/warm", Extra: map[string]float64{"speedup_vs_cold": 14}}})
	if rep.WarmSpeedup != 14 {
		t.Errorf("warm_speedup_e7r = %g, want the warm record's speedup_vs_cold", rep.WarmSpeedup)
	}
}

// declares reports whether e states key on record's op as a counter
// or a ratio.
func declares(e *Experiment, record, key string) bool {
	for _, c := range e.Counters {
		if c.Key == key {
			return true
		}
	}
	for _, r := range e.Ratios {
		if r.Key == key && r.Op == record {
			return true
		}
	}
	return false
}

// computes reports whether record carries a value key in rs.
func computes(rs []Result, record, key string) bool {
	for _, r := range rs {
		if _, ok := r.Extra[key]; ok && r.Experiment == record {
			return true
		}
	}
	return false
}
