package bench

// E11: WAL-shipping replication. A logged primary carries the E7r
// 20k-fact world; a follower bootstraps from its snapshot endpoint
// and tails its WAL. The experiment answers two questions the
// replication design stands on: does a follower serve the E7
// navigation mix at (nearly) single-node speed — reads never touch
// the replication path, so the answer should be ~1.0x — and how far
// behind a committed write does the follower's applied watermark run
// in steady state.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	lsdb "repro"
	"repro/internal/repl"
	"repro/internal/sym"
)

// e11World is a replicated pair carrying the OnDemandWorld facts:
// standalone is the unreplicated baseline database, follower the
// replica database serving the same facts.
type e11World struct {
	standalone *lsdb.Database
	primary    *lsdb.Database
	follower   *lsdb.Database
	fl         *repl.Follower
	srv        *httptest.Server
	dir        string

	bootstrap time.Duration // snapshot fetch + decode + boot-file write
	loadFacts int
}

func (w *e11World) close() {
	if w.fl != nil {
		w.fl.Stop()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.primary != nil {
		w.primary.Close()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// newE11World builds the pair: the OnDemandWorld facts are replayed
// into a logged primary (interval sync, so bulk load group-commits),
// the log is compacted so a joining follower takes the snapshot
// bootstrap path — how a replica is actually provisioned — and a
// follower is started and caught up.
func newE11World(facts int) (*e11World, error) {
	w := &e11World{}
	src, _ := OnDemandWorld(facts)
	w.standalone = src

	dir, err := os.MkdirTemp("", "lsdb-bench-e11")
	if err != nil {
		return nil, err
	}
	w.dir = dir

	pdb, err := lsdb.Open(lsdb.Options{
		LogPath:    dir + "/primary.log",
		SyncPolicy: lsdb.SyncInterval(2 * time.Millisecond),
	})
	if err != nil {
		w.close()
		return nil, err
	}
	w.primary = pdb
	pst, pu, su := pdb.Store(), pdb.Universe(), src.Universe()
	for _, f := range src.Store().Facts() {
		g := pu.NewFact(su.Name(f.S), su.Name(f.R), su.Name(f.T))
		if _, err := pst.InsertLogged(g); err != nil {
			w.close()
			return nil, err
		}
	}
	w.loadFacts = pdb.Len()
	if err := pdb.Sync(); err != nil {
		w.close()
		return nil, err
	}

	p := repl.NewPrimary(pdb, repl.PrimaryOptions{})
	mux := http.NewServeMux()
	mux.HandleFunc("/repl/wal", p.ServeWAL)
	mux.HandleFunc("/repl/snapshot", p.ServeSnapshot)
	w.srv = httptest.NewServer(mux)

	// Compact before the follower exists: the join goes through the
	// snapshot endpoint, not a 20k-record tail replay.
	if err := pdb.Compact(); err != nil {
		w.close()
		return nil, err
	}

	fdb, err := lsdb.Open(lsdb.Options{})
	if err != nil {
		w.close()
		return nil, err
	}
	w.follower = fdb
	fl, err := repl.NewFollower(fdb, repl.Config{
		Primary: w.srv.URL,
		Dir:     dir,
		Name:    "e11",
		ID:      "e11-bench",
		WaitMs:  250,
		Backoff: time.Millisecond,
	})
	if err != nil {
		w.close()
		return nil, err
	}
	t0 := time.Now()
	if err := fl.Start(); err != nil {
		w.close()
		return nil, err
	}
	w.fl = fl
	if _, ok := fl.WaitLSN(pdb.LSN(), 60*time.Second); !ok {
		w.close()
		return nil, fmt.Errorf("e11: follower never caught up to LSN %d (stats %+v)", pdb.LSN(), fl.Stats())
	}
	// The watermark reaches the primary's LSN before the follower
	// folds the snapshot into its derived closure (~1.5M facts on this
	// world); wait for the first clean poll so the lag measurement
	// sees steady state, not the bootstrap fold.
	for deadline := time.Now().Add(60 * time.Second); !fl.Stats().Connected; {
		if time.Now().After(deadline) {
			w.close()
			return nil, fmt.Errorf("e11: follower never reached steady state (stats %+v)", fl.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	w.bootstrap = time.Since(t0)
	return w, nil
}

// e11Trail maps the standard navigation trail (the OnDemandWorld
// hub/mid/tail entities by Zipf rank) into db's universe by name, so
// the standalone and follower replays visit the same entities.
func e11Trail(db *lsdb.Database) []sym.ID {
	var out []sym.ID
	for _, rank := range e6Ranks {
		out = append(out, db.Entity(fmt.Sprintf("N%06d", rank)))
	}
	return out
}

// lag drives write k through the primary and measures commit→applied
// latency on the follower: the time from the durable acknowledgment
// (what a client sees, with the commit LSN) to the follower's
// watermark reaching that LSN.
func (w *e11World) lag(k int) (time.Duration, error) {
	if err := w.primary.Assert(fmt.Sprintf("E11-W%d", k), "in", "E11-LAG"); err != nil {
		return 0, err
	}
	lsn := w.primary.LSN()
	t0 := time.Now()
	if _, ok := w.fl.WaitLSN(lsn, 10*time.Second); !ok {
		return 0, fmt.Errorf("e11: write %d (LSN %d) never reached the follower", k, lsn)
	}
	return time.Since(t0), nil
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// E11 measures a follower serving the E7 navigation mix against the
// standalone baseline (read_fraction is follower QPS over standalone
// QPS), and the commit→applied lag distribution. A write that never
// reaches the follower is counted in lost_writes, not timed.
var e11 = &Experiment{
	Name:   "E11",
	Title:  "WAL-shipped read replica",
	Points: onDemandPoints(Point{"sync": "interval2ms", "writes": 200}), // Setup sets facts to those loaded
	Quick:  1,
	Ops:    []string{"E11_ReplicaRead/standalone", "E11_ReplicaRead/follower", "E11_ReplicationLag"},
	Ratios: []Ratio{{"read_fraction", "E11_ReplicaRead/standalone", "E11_ReplicaRead/follower"}},
	Setup: func(p Point) (*Fixture, error) {
		w, err := newE11World(p.Int("facts"))
		if err != nil {
			return nil, err
		}
		depth := p.Int("depth")
		strail, ftrail := e11Trail(w.standalone), e11Trail(w.follower)
		replay(w.standalone, depth, strail) // prime
		replay(w.follower, depth, ftrail)
		var lat []time.Duration
		lost := 0
		return &Fixture{
			Params: Point{"facts": w.loadFacts},
			Ops: []Op{
				{Reps: 20, Run: each(func() { replay(w.standalone, depth, strail) })},
				{Reps: 20, Run: each(func() { replay(w.follower, depth, ftrail) }),
					Values: values(map[string]float64{"bootstrap_ms": ms(w.bootstrap)})},
				{Reps: p.Int("writes"), Run: counted(func(k int) {
					if d, err := w.lag(k); err != nil {
						lost++
					} else {
						lat = append(lat, d)
					}
				}), Values: func() map[string]float64 {
					sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
					return map[string]float64{
						"p50_ms": ms(quantile(lat, 0.50)), "p95_ms": ms(quantile(lat, 0.95)),
						"max_ms": ms(quantile(lat, 1)), "lost_writes": float64(lost),
					}
				}},
			},
			Close: w.close,
		}, nil
	},
}
