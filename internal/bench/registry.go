package bench

// The experiment registry. Each experiment of DESIGN.md §3 is stated
// once, as an Experiment value in Experiments; the go test -bench
// entry (BenchmarkExperiments), the lsdb-bench tables and the
// lsdb-bench -json records are all generated from it.

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/tabular"
)

// Point is one parameter point of an experiment. Its entries label
// every record measured at the point (the JSON "params", the varying
// table columns).
type Point map[string]any

// Int returns the integer parameter k, or 0 when the point does not
// set it.
func (p Point) Int(k string) int {
	v, _ := p[k].(int)
	return v
}

// String renders the point as sorted key=value pairs; it names the
// point's sub-benchmark.
func (p Point) String() string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, p[k])
	}
	return strings.Join(parts, ",")
}

// Experiment states one experiment: its parameter points, its setup,
// its measured ops and the registry counters it reports.
type Experiment struct {
	Name  string // lsdb-bench argument, e.g. "E7r"
	Title string
	// Points are the parameter points, smallest first; Points[:Quick]
	// is the subset run by lsdb-bench -quick and go test -short.
	Points []Point
	Quick  int
	// Ops names the measured ops, one record each, in the order Setup
	// returns them. The names are the JSON "experiment" field.
	Ops []string
	// Counters are reported on every record as deltas over that op's
	// own measured loop, read from the fixture's metrics registry.
	Counters []Counter
	// Ratios derive one record's value from two ops of the same point.
	Ratios []Ratio
	// Setup builds the world for one point.
	Setup func(p Point) (*Fixture, error)
}

// Fixture is the world Setup built for one point.
type Fixture struct {
	Ops []Op // aligned with Experiment.Ops
	// Params carries values only setup knows: a declared param whose
	// value depends on the built world (facts after dedup, the picked
	// noise class).
	Params  Point
	Metrics *obs.Registry // source of the experiment's Counters
	Close   func()
}

// Op is one measured operation.
type Op struct {
	Reps int // iterations per lsdb-bench measurement
	// Run performs n iterations. It may be called any number of times
	// on one fixture, so an iteration never repeats a previous one's
	// writes.
	Run func(n int)
	// Values reports what the op produced (paths found, waves, index
	// bytes), read after its measured loop.
	Values func() map[string]float64
}

// Time runs n iterations and returns the mean wall time of one.
func (o Op) Time(n int) time.Duration {
	t0 := time.Now()
	o.Run(n)
	return time.Since(t0) / time.Duration(n)
}

// Counter is a record value computed from the deltas of registry
// series (keyed as in obs.Sample) over an op's measured loop.
type Counter struct {
	Key string
	Of  func(delta func(series string) float64) float64
}

// deltaOf reports the delta of one series.
func deltaOf(key, series string) Counter {
	return Counter{key, func(d func(string) float64) float64 { return d(series) }}
}

// Ratio sets Extra[Key] on the Op record to the Base record's time
// per op over the Op record's: a speedup, or a read fraction.
type Ratio struct{ Key, Base, Op string }

// Result is one measured record.
type Result struct {
	Experiment  string             `json:"experiment"`
	Params      Point              `json:"params,omitempty"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Report is the lsdb-bench -json payload.
type Report struct {
	GoVersion  string   `json:"go_version"`
	GoMaxProcs int      `json:"go_max_procs"`
	Results    []Result `json:"results"`
	// WarmSpeedup is the largest E7r world's cold time per session
	// over its warm one — the cross-query subgoal cache's headline.
	WarmSpeedup float64 `json:"warm_speedup_e7r"`
}

// NewReport wraps results in a report.
func NewReport(rs []Result) Report {
	rep := Report{GoVersion: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0), Results: rs}
	for _, r := range rs {
		if r.Experiment == "E7_OnDemandRepeated/warm" {
			rep.WarmSpeedup = r.Extra["speedup_vs_cold"]
		}
	}
	return rep
}

// Lookup returns the registered experiment with the given name.
func Lookup(name string) *Experiment {
	for _, e := range Experiments {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// Names lists the registered experiments in order.
func Names() []string {
	out := make([]string, len(Experiments))
	for i, e := range Experiments {
		out[i] = e.Name
	}
	return out
}

// Selected returns the points to run: the quick subset or all of
// them, without those whose "facts" parameter exceeds maxFacts.
func (e *Experiment) Selected(quick bool, maxFacts int) []Point {
	ps := e.Points
	if quick {
		ps = ps[:e.Quick]
	}
	var out []Point
	for _, p := range ps {
		if p.Int("facts") <= maxFacts {
			out = append(out, p)
		}
	}
	return out
}

// Op returns the fixture's op with the given name.
func (e *Experiment) Op(f *Fixture, name string) Op {
	return f.Ops[indexOf(e.Ops, name)]
}

// Run measures every op at each point: n iterations per op, or the
// op's own Reps when n is 0.
func (e *Experiment) Run(points []Point, n int) ([]Result, error) {
	var out []Result
	for _, p := range points {
		rs, err := e.runPoint(p, n)
		if err != nil {
			return out, fmt.Errorf("%s at %v: %w", e.Name, p, err)
		}
		out = append(out, rs...)
	}
	return out, nil
}

func (e *Experiment) runPoint(p Point, n int) ([]Result, error) {
	f, err := e.Setup(p)
	if err != nil {
		return nil, err
	}
	if f.Close != nil {
		defer f.Close()
	}
	params := maps.Clone(p)
	maps.Copy(params, f.Params)
	rs := make([]Result, len(e.Ops))
	for i, name := range e.Ops {
		op := f.Ops[i]
		reps := n
		if reps == 0 {
			reps = max(op.Reps, 1)
		}
		before := snapshot(f.Metrics)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d := op.Time(reps)
		runtime.ReadMemStats(&m1)
		rs[i] = Result{
			Experiment:  name,
			Params:      params,
			NsPerOp:     float64(d.Nanoseconds()),
			BytesPerOp:  int64(m1.TotalAlloc-m0.TotalAlloc) / int64(reps),
			AllocsPerOp: int64(m1.Mallocs-m0.Mallocs) / int64(reps),
			Extra:       e.extra(op, f.Metrics, before),
		}
	}
	for _, r := range e.Ratios {
		base, of := indexOf(e.Ops, r.Base), indexOf(e.Ops, r.Op)
		if rs[of].NsPerOp > 0 {
			if rs[of].Extra == nil {
				rs[of].Extra = map[string]float64{}
			}
			rs[of].Extra[r.Key] = rs[base].NsPerOp / rs[of].NsPerOp
		}
	}
	return rs, nil
}

func indexOf(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	panic("bench: no op " + name)
}

// snapshot reads every series of reg; nil reads nothing.
func snapshot(reg *obs.Registry) map[string]float64 {
	if reg == nil {
		return nil
	}
	out := make(map[string]float64)
	for _, s := range reg.Snapshot() {
		out[s.Key] = s.Value
	}
	return out
}

// extra collects an op's values and the experiment's counters as
// deltas since before; counters with an empty denominator are left
// out.
func (e *Experiment) extra(op Op, reg *obs.Registry, before map[string]float64) map[string]float64 {
	x := make(map[string]float64)
	if op.Values != nil {
		maps.Copy(x, op.Values())
	}
	if reg != nil && len(e.Counters) > 0 {
		after := snapshot(reg)
		d := func(series string) float64 { return after[series] - before[series] }
		for _, c := range e.Counters {
			if v := c.Of(d); !math.IsNaN(v) && !math.IsInf(v, 0) {
				x[c.Key] = v
			}
		}
	}
	if len(x) == 0 {
		return nil
	}
	return x
}

// Render lays out an experiment's records as one table: params that
// are equal on every record go into the title, the rest become
// columns, followed by the op, its cost and its values.
func (e *Experiment) Render(rs []Result) string {
	keySet := map[string]bool{}
	extraSet := map[string]bool{}
	for _, r := range rs {
		for k := range r.Params {
			keySet[k] = true
		}
		for k := range r.Extra {
			extraSet[k] = true
		}
	}
	var fixed, vary []string
	for _, k := range sortedKeys(keySet) {
		same := true
		for _, r := range rs {
			if fmt.Sprint(r.Params[k]) != fmt.Sprint(rs[0].Params[k]) {
				same = false
			}
		}
		if same {
			fixed = append(fixed, fmt.Sprintf("%s=%v", k, rs[0].Params[k]))
		} else {
			vary = append(vary, k)
		}
	}
	extras := sortedKeys(extraSet)
	t := &tabular.Rows{Title: e.Name + "  " + e.Title}
	if len(fixed) > 0 {
		t.Title += " (" + strings.Join(fixed, " ") + ")"
	}
	t.Headers = append(append(append([]string{}, vary...), "op", "time/op", "B/op", "allocs/op"), extras...)
	for _, r := range rs {
		var row [][]string
		for _, k := range vary {
			row = append(row, []string{fmt.Sprint(r.Params[k])})
		}
		row = append(row, []string{r.Experiment}, []string{dur(time.Duration(r.NsPerOp))},
			[]string{fmt.Sprint(r.BytesPerOp)}, []string{fmt.Sprint(r.AllocsPerOp)})
		for _, k := range extras {
			cell := "—"
			if v, ok := r.Extra[k]; ok {
				cell = num(v)
			}
			row = append(row, []string{cell})
		}
		t.AddRow(row...)
	}
	return t.Render()
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func num(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

func dur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// each turns a single iteration into an Op.Run.
func each(fn func()) func(int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			fn()
		}
	}
}

// counted is each with a fixture-lifetime iteration number, for ops
// whose iterations must write distinct facts.
func counted(fn func(k int)) func(int) {
	k := 0
	return func(n int) {
		for i := 0; i < n; i++ {
			fn(k)
			k++
		}
	}
}

// parallel spreads n iterations over g goroutines.
func parallel(g int, fn func(i int)) func(int) {
	return func(n int) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
					fn(int(i))
				}
			}()
		}
		wg.Wait()
	}
}

// sweep returns one point per value of key.
func sweep(key string, vals ...int) []Point {
	out := make([]Point, len(vals))
	for i, v := range vals {
		out[i] = Point{key: v}
	}
	return out
}

// values returns a constant Values func.
func values(m map[string]float64) func() map[string]float64 {
	return func() map[string]float64 { return m }
}
