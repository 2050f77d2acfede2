// Command lsdbbench is the end-to-end benchmark of the lsdb serving
// stack. It builds the browse world, serves it over HTTP from an
// in-process serve.Server, drives one workload against it, checks
// every answer, and prints its metrics. See README.md.
//
//	lsdbbench --workload browse|browse-write|replica --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced replay adds the per-layer ones. The command exits
// nonzero when an answer, the durability reopen or the span-vs-counter
// reconciliation is wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	lsdb "repro"
	"repro/internal/sym"
)

// Workload parameters, calibrated once on a 2-CPU machine (README.md).
// The open-loop rate is a light load, far below the closed loop's
// capacity even on browse-write, so read latency shows the cost of a
// read and of the republish stalls rather than a standing queue. Each
// write's closure republish (250–700 ms) holds the engine lock and
// stalls every closure read; at one write per 2.5 s that is about a
// fifth of the time. At one per second it was about 45%, which left the
// median read on the edge between reads that meet a republish and reads
// that do not, so it jumped from run to run.
const (
	readRate    = 50.0                    // open-loop reads per second
	writePeriod = 2500 * time.Millisecond // one write per period on browse-write and replica
	openShare   = 0.6                     // share of --seconds spent in the open loop; the rest is the closed loop
	setups      = 5                       // setups per run; setup_s is their median
	warmReads   = 300                     // reads sent before the timed window
)

var workloads = map[string]bool{"browse": true, "browse-write": true, "replica": true}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "browse, browse-write or replica")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1: add the traced replay and print the per-layer metrics")
	work := flag.String("work", ".bench_build", "directory for data directories and span files")
	flag.Parse()
	if !workloads[*workload] || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: lsdbbench --workload browse|browse-write|replica --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *work); err != nil {
		fmt.Fprintln(os.Stderr, "lsdbbench:", err)
		os.Exit(1)
	}
}

// report is the human-readable account printed before the result
// line: the conditions of the run, the sample count and percentile
// behind every timing, and everything that failed.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Sync       string             `json:"sync_policy"`
	ReadRate   float64            `json:"open_loop_reads_per_s"`
	Conns      int                `json:"client_connections"`
	World      map[string]int     `json:"world"`
	Samples    map[string]string  `json:"samples"`
	FailRatio  float64            `json:"fail_ratio"`
	Torn       int                `json:"torn_reads"`
	Phases     map[string]float64 `json:"phase_seconds"`
	Failures   map[string]int     `json:"failures"`
	Statuses   map[string]int64   `json:"non_200_statuses,omitempty"`
	Extra      map[string]float64 `json:"extra"`
}

func run(workload string, seed int64, window time.Duration, traced bool, work string) error {
	go memoryGuard()
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	replica := workload == "replica"
	writing := workload != "browse"

	runDir, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	phases := map[string]float64{}
	last := time.Now()
	phase := func(name string) {
		phases[name] = time.Since(last).Seconds()
		last = time.Now()
	}
	world, names := buildWorld()
	worldLen := world.Len()
	closureLen := world.ClosureLen()
	derived := derivedFacts(world, names)
	seedLog := filepath.Join(runDir, "seed", logName)
	if err := seedDataDir(world, filepath.Dir(seedLog)); err != nil {
		return fmt.Errorf("seed data dir: %w", err)
	}
	world = nil

	phase("world")
	hc := newHTTPClient(nproc)
	defer hc.CloseIdleConnections()
	var setupS []float64
	var cl *cluster
	for i := 0; i < setups; i++ {
		// Every setup starts from a collected heap, so none pays for the
		// garbage of the world build or of the setup before it.
		runtime.GC()
		c, err := startCluster(seedLog, filepath.Join(runDir, fmt.Sprintf("cluster-%d", i)), replica, hc, names[0])
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, c.setupDur.Seconds())
		if i == setups-1 {
			cl = c
			break
		}
		if err := c.close(); err != nil {
			return err
		}
		os.RemoveAll(c.dir)
	}

	// The write stream, sent during the window on browse-write and
	// replica; browse sends none.
	openDur := time.Duration(float64(window) * openShare)
	closedDur := window - openDur
	var openWrites, closedWrites []int
	var stream []writeOp
	if writing {
		stream = writeStream(int(window / writePeriod))
		for i := range stream {
			if i < int(openDur/writePeriod) {
				openWrites = append(openWrites, i)
			} else {
				closedWrites = append(closedWrites, i)
			}
		}
	}
	cc := newClient(hc, cl, stream)

	phase("setups")
	g := newOpGen(seed, names, derived)
	warmOps := make([]readOp, warmReads)
	for i := range warmOps {
		warmOps[i] = g.next()
		cc.read(warmOps[i])
	}
	items := schedule(g, readRate, openDur, openWrites, writePeriod)
	replCounters := func() (stale, reboots float64) {
		if cl.follower == nil {
			return 0, 0
		}
		reg := cl.follower.Metrics()
		return reg.Value("lsdb_http_stale_total"), reg.Value("lsdb_repl_rebootstraps_total")
	}
	stale0, reboots0 := replCounters()

	phase("warm")
	runtime.GC()
	cpu0 := cpuTime()
	open := cc.openLoop(items, nproc)
	closed := cc.closedLoop(g, closedDur, closedWrites, writePeriod, nproc)
	cpu1 := cpuTime()

	stale1, reboots1 := replCounters()
	win := &phaseResult{}
	win.merge(open)
	win.merge(closed)
	completed := win.readsOK
	for _, w := range win.writes {
		if w < inf {
			completed++
		}
	}
	cpuPerOp := ms(cpu1-cpu0) / float64(max(completed, 1))

	// Correctness gate, part one: every window answer. The server's
	// state is as the window left it; the answer log and the references
	// are the benchmark's own and are dropped before the heap is read.
	phase("window")
	ver := verifyAnswers(cc.answers, streamStates(stream))
	wrongWindow, bad := ver.wrong, ver.bad
	cc.answers = nil
	runtime.GC()
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)
	heapMB := float64(mst.HeapAlloc) / (1 << 20)

	// Part two: a probe set against the reference, then the durability
	// reopen.
	phase("verify")
	probe := probeSet(seed, names, derived, cc.acks)
	wrongProbe, bad2 := runProbeSet(cc, probe, reference(cc.acks), cl.primary.LSN())
	bad = append(bad, bad2...)
	if err := cl.close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	phase("probe_set_close")
	durErr := checkDurable(cl.dir, worldLen, cc.acks)

	phase("reopen")
	rd := summarise(append([]float64(nil), open.reads...))
	lim := ms(requestTimeout)
	m := map[string]metric{
		"setup_s":       {median(setupS), "s"},
		"read_p50_ms":   {finite(rd.p50, lim), "ms"},
		"read_tail_ms":  {finite(rd.tail, lim), "ms"},
		"goodput_qps":   {goodput(closed.goodAt, closedDur), "req/s"},
		"heap_mb":       {heapMB, "MiB"},
		"cpu_ms_per_op": {cpuPerOp, "ms"},
	}
	samples := map[string]string{
		"setup_s": fmt.Sprintf("median of %d setups %.3f", len(setupS), setupS),
		"read":    fmt.Sprintf("open loop, %.0f reads/s for %s, n=%d, tail=%s", readRate, openDur, rd.n, rd.tailAt),
		"goodput": fmt.Sprintf("closed loop, %d clients for %s, %d reads, limit %s", nproc, closedDur, closed.attempts, latencyLimit),
	}
	if writing {
		wd := summarise(append([]float64(nil), win.writes...))
		vd := summarise(append([]float64(nil), win.visible...))
		m["write_p50_ms"] = metric{finite(wd.p50, lim), "ms"}
		m["write_tail_ms"] = metric{finite(wd.tail, lim), "ms"}
		m["visible_p50_ms"] = metric{finite(vd.p50, lim), "ms"}
		m["visible_tail_ms"] = metric{finite(vd.tail, lim), "ms"}
		samples["write"] = fmt.Sprintf("n=%d, tail=%s", wd.n, wd.tailAt)
		samples["visible"] = fmt.Sprintf("n=%d, tail=%s", vd.n, vd.tailAt)
	}

	attempted := warmReads + win.attempts + len(probe) + 1
	requestFails := int(cc.failures.Load())
	failed := requestFails + wrongWindow + wrongProbe + boolInt(durErr != nil)
	rep := report{
		Workload: workload, Seed: seed, NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Sync: "always", ReadRate: readRate, Conns: nproc,
		World:     map[string]int{"entities": worldEntities, "generated_facts": worldFacts, "stored_facts": worldLen, "closure_facts": closureLen},
		Samples:   samples,
		FailRatio: float64(failed) / float64(attempted),
		Failures: map[string]int{
			"requests":        requestFails,
			"wrong_in_window": wrongWindow,
			"wrong_in_probe":  wrongProbe,
			"durability":      boolInt(durErr != nil),
		},
		Torn:   ver.torn,
		Phases: phases,
		Extra: map[string]float64{
			"late_p50_ms": median(open.late),
			"late_max_ms": maxOf(open.late),
		},
	}
	cc.status.Range(func(k, v any) bool {
		if rep.Statuses == nil {
			rep.Statuses = map[string]int64{}
		}
		rep.Statuses[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	if traced {
		var replay []schedItem
		for _, it := range items {
			if it.due < replayWindow {
				replay = append(replay, it)
			}
		}
		tr, err := traceRun(traceInput{
			seedLog: seedLog, runDir: runDir, replica: replica, hc: hc, names: names,
			warm: warmOps, items: replay, stream: stream,
			spansOut:     filepath.Join(work, "trace", fmt.Sprintf("%s-seed%d.jsonl", workload, seed)),
			lateMS:       median(open.late),
			torn:         float64(ver.torn),
			stale412:     stale1 - stale0,
			rebootstraps: reboots1 - reboots0,
		})
		if err != nil {
			return err
		}
		for k, v := range tr.samples {
			rep.Samples[k] = v
		}
		rep.Failures["wrong_in_replay"] = tr.wrong
		rep.Failures["reconciliation"] = len(tr.mismatch)
		for _, msg := range tr.mismatch {
			fmt.Fprintln(os.Stderr, "lsdbbench: reconciliation:", msg)
		}
		bad = append(bad, tr.bad...)
		attempted += tr.attempted + 1
		failed += tr.wrong + boolInt(len(tr.mismatch) > 0)
		rep.FailRatio = float64(failed) / float64(attempted)
		printMetrics(m)
		m = tr.metrics
	}
	printReport(rep, m)
	for _, b := range bad {
		fmt.Fprintf(os.Stderr, "lsdbbench: wrong answer (%d×) to %s\n  got  %s\n  want %s\n", b.count, b.key, b.got, b.want)
	}
	if durErr != nil {
		fmt.Fprintln(os.Stderr, "lsdbbench: durability:", durErr)
	}
	correct := failed == 0
	out, _ := json.Marshal(result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: m})
	fmt.Println(string(out))
	if !correct {
		return fmt.Errorf("%d of %d operations failed or were wrong", failed, attempted)
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// printReport prints every metric by name with its unit, then the
// report as one JSON line.
func printReport(rep report, m map[string]metric) {
	printMetrics(m)
	fmt.Printf("%-34s %14.6f %s\n", "fail_ratio", rep.FailRatio, "1")
	b, _ := json.Marshal(rep)
	fmt.Println(strings.TrimSpace(string(b)))
}

func printMetrics(m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// derivedFacts returns, per world entity, the closure facts with that
// subject whose relationship the mix asks about: derive's targets.
func derivedFacts(w *lsdb.Database, names []string) func(string) [][3]string {
	u := w.Universe()
	c := w.Engine().Closure()
	ask := map[string]bool{}
	for _, r := range rels {
		ask[r] = true
	}
	by := make(map[string][][3]string, len(names))
	for _, n := range names {
		for _, f := range c.MatchAll(w.Entity(n), sym.None, sym.None) {
			if r := u.Name(f.R); ask[r] {
				by[n] = append(by[n], [3]string{n, r, u.Name(f.T)})
			}
		}
	}
	return func(e string) [][3]string { return by[e] }
}

// heapCap is the most live heap a run may hold. The benchmark's own
// working set is under 100 MiB; a run that passes the cap has met an
// unbounded evaluation and is stopped before it takes the machine's
// memory.
const heapCap = 1536 << 20

func memoryGuard() {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	for range time.Tick(50 * time.Millisecond) {
		metrics.Read(sample)
		if v := sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > heapCap {
			fmt.Fprintf(os.Stderr, "lsdbbench: live heap passed %d MiB; stopping\n", heapCap>>20)
			os.Exit(1)
		}
	}
}
