// Command pathbench is the repository benchmark: three closed-loop
// workloads over the public functions of wm, jobs, nativewm and isa, each
// operation checked against an expected verdict. See README.md for the
// workloads, the metrics and how the traced run attributes time to layers.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash pathbench/run.sh --workload jess-grade --seed 3 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// leg is one pipeline the benchmark drives. Every workload runs its own
// leg at full size for the measured time, and the other two legs at small
// size for a fixed number of operations, so that every run reports every
// metric BENCHMARK.json names (see README.md).
type leg interface {
	// period is the length of the leg's operation schedule; loops stop
	// only at period boundaries so every run covers whole schedules.
	period() int
	// minOps is the fewest untraced operations a run needs (enough
	// samples beyond each reported percentile).
	minOps() int
	// op runs untraced operation i, records its samples, and returns its
	// measured time and an error for a failure or a wrong verdict.
	op(i int) (time.Duration, error)
	// tracedOp runs operation i through the layers one call at a time
	// under root spans in rec; the root's children account for the same
	// work op does. Extra attribution calls go under a second root.
	tracedOp(i int, rec *recorder) (root int, err error)
	endToEnd() map[string]float64
	perLayer() map[string]float64
	// layerTimes turns the accounted span trees' self-times per layer
	// into the times layer shares are reported from.
	layerTimes(tree map[string]time.Duration) map[string]time.Duration
}

type tally struct{ attempted, failed int }

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= 10 {
			fmt.Fprintln(os.Stderr, "pathbench: failed operation:", err)
		}
	}
}

var workloadNames = []string{"caffeine-forensics", "jess-grade", "spec-native"}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// setupRepeats is how many times a run sets up its workload; setup_s is
// the median.
const setupRepeats = 3

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pathbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload: caffeine-forensics, jess-grade or spec-native")
	seed := flag.Int64("seed", 1, "seed all inputs are generated from")
	seconds := flag.Int("seconds", 35, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	primary := -1
	for i, n := range workloadNames {
		if n == *workload {
			primary = i
		}
	}
	if primary < 0 {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	spec, err := readBenchFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	out := filepath.Join(".bench_build", "pathbench")
	work := filepath.Join(out, fmt.Sprintf("work-%d", os.Getpid()))
	defer os.RemoveAll(work)

	// setup_s times the workload's own leg only; the small legs are built
	// once, outside the stopwatch.
	var own leg
	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		own = nil
		runtime.GC()
		sw := startWatch()
		if own, err = newLeg(primary, true, *seed, work); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		_, cpu := sw.stop()
		setups = append(setups, cpu.Seconds())
	}
	legs := []leg{own}
	for i := range workloadNames {
		if i != primary {
			l, err := newLeg(i, false, *seed, work)
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			legs = append(legs, l)
		}
	}
	runtime.GC()

	var t tally
	metrics := map[string]float64{}
	budget := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		interleave(legs, budget, &t)
		for i := len(legs) - 1; i >= 0; i-- {
			mergeInto(metrics, legs[i].endToEnd())
		}
		metrics["setup_s"] = median(setups)
		metrics["max_rss_mb"] = maxRSSMB()
	} else {
		rec := newRecorder()
		start := time.Now()
		for _, l := range legs[1:] {
			tracePass(l, smallTraced*l.period(), time.Now(), rec, &t)
		}
		sum := tracePass(legs[0], 0, start.Add(budget), rec, &t)
		for i := len(legs) - 1; i >= 0; i-- {
			mergeInto(metrics, legs[i].perLayer())
		}
		metrics["obs.overhead_pct"] = sum.overheadPct()
		sum.report(*workload)
		path := filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := rec.write(path); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "pathbench: spans written to", path)
	}

	want := spec.EndToEnd
	if *trace == 1 {
		want = spec.PerLayer
	}
	res := result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]value{}}
	for _, m := range want {
		v, ok := metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	res.Correct = t.failed == 0 && t.attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric list: %w", err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &b, nil
}

// newLeg builds pipeline i (an index into workloadNames), at full size
// for the run's own workload and at small size otherwise. Each leg draws
// its inputs from its own stream derived from the seed.
func newLeg(i int, full bool, seed int64, work string) (leg, error) {
	legSeed := mix(seed, int64(i))
	var l leg
	var err error
	switch i {
	case 0:
		l, err = newForensics(legSeed, full)
	case 1:
		l, err = newGrade(legSeed, full, filepath.Join(work, "jobs"))
	case 2:
		l, err = newNative(legSeed, full)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workloadNames[i], err)
	}
	return l, nil
}

// interleave runs the untraced closed loop: the workload's own leg
// (legs[0]) until the budget has passed and it has its minimum sample
// count, and each small leg's minimum count spread evenly over the same
// time, so every metric samples the whole run rather than one stretch
// of it. Legs stop only between schedules. Every operation starts from a
// collected heap, so its CPU time and memory peak are its own: a small
// leg's few milliseconds would otherwise carry the GC work the full-size
// leg left behind, and one CaffeineMark recognition of a tail copy (up to
// 2.5 M trace bits) landing on the previous one's uncollected garbage
// doubled the process's peak on some seeds.
func interleave(legs []leg, budget time.Duration, t *tally) {
	start := time.Now()
	next := make([]int, len(legs))
	done := func(j int) bool {
		l := legs[j]
		return next[j]%l.period() == 0 && next[j] >= l.minOps()
	}
	for {
		frac := time.Since(start).Seconds() / budget.Seconds()
		j := 0
		for k := 1; k < len(legs); k++ {
			if !done(k) && float64(next[k]) < frac*float64(legs[k].minOps()) {
				j = k
				break
			}
		}
		if j == 0 && done(0) && frac >= 1 {
			for k := 1; k < len(legs); k++ {
				if !done(k) {
					j = k
				}
			}
			if j == 0 {
				return
			}
		}
		runtime.GC()
		_, err := legs[j].op(next[j])
		t.record(err)
		next[j]++
	}
}

// Bounds on the traced run's accounting. Each operation's layer
// self-times, divided by the same operation's untraced time, must lie
// within [accountLo, accountHi] (or differ by less than accountSlack),
// and the median of those ratios within [medianLo, medianHi]. The
// per-operation band is wide because one untraced sample against one
// traced sample carries the host's noise (on a shared VM, steal stretches
// single operations threefold); the median is not moved by that, and a
// trace that misses a layer moves every ratio.
const (
	accountLo, accountHi = 1.0 / 3, 3.0
	accountSlack         = 10 * time.Millisecond
	medianLo, medianHi   = 0.8, 1.25
)

// checkAccount applies the per-operation band to one attribution: acc
// is the time the spans account for, ref the time of the call they split.
func checkAccount(what string, acc, ref time.Duration) (float64, error) {
	r := acc.Seconds() / ref.Seconds()
	if (r < accountLo || r > accountHi) && (acc-ref).Abs() > accountSlack {
		return r, fmt.Errorf("%s accounts for %v of %v", what, acc, ref)
	}
	return r, nil
}

// checkMedian applies the median band to one pass's ratios.
func checkMedian(what string, ratios []float64) error {
	if r := median(ratios); r < medianLo || r > medianHi {
		return fmt.Errorf("%s account for a median %.2f of the time they split", what, r)
	}
	return nil
}

// partsAccounting is implemented by a leg whose layer shares come from
// attribution calls rather than from its accounted span tree. Its
// tracedOp checks each operation's parts against the serial call they
// split (checkAccount) and keeps the ratios, which tracePass holds to the
// median band.
type partsAccounting interface {
	partRatios() []float64
}

// smallTraced is how many schedules of each small leg the traced run
// traces.
const smallTraced = 4

type traceSummary struct {
	ratios   []float64 // accounted / untraced, per traced operation
	overhead []float64 // root span / untraced, per traced operation
	parts    float64   // median attribution parts / serial call, if the leg has them
	layers   map[string]time.Duration
}

// tracePass runs each operation three times back to back — once to warm
// up (its time discarded: the first run after a different input pays
// for growing the heap into fresh pages), then untraced and traced,
// alternating which goes first so the host's drift favours neither —
// until the deadline has passed and at least minTraced operations (and
// whole schedules) have run. It checks that each traced operation's spans
// account for its untraced time. Every run starts from a collected heap,
// so the attribution calls' garbage does not land on the next operation.
func tracePass(l leg, minTraced int, deadline time.Time, rec *recorder, t *tally) traceSummary {
	minTraced = max(minTraced, l.period())
	var sum traceSummary
	tree := map[string]time.Duration{}
	for i := 0; i%l.period() != 0 || i < minTraced || time.Now().Before(deadline); i++ {
		var un time.Duration
		untraced := func() {
			runtime.GC()
			d, err := l.op(i)
			t.record(err)
			un = d
		}
		untraced()
		if i%2 == 0 {
			untraced()
		}
		runtime.GC()
		root, err := l.tracedOp(i, rec)
		if i%2 == 1 {
			untraced()
		}
		if err == nil {
			var r float64
			what := fmt.Sprintf("trace of op %d (%s)", i, rec.spans[root].Name)
			r, err = checkAccount(what, rec.accounted(root), un)
			sum.ratios = append(sum.ratios, r)
			sum.overhead = append(sum.overhead, rec.dur(root).Seconds()/un.Seconds())
			rec.layerSelf(root, tree)
		}
		t.record(err)
	}
	if err := checkMedian("traced operations", sum.ratios); err != nil {
		t.record(err)
	}
	if p, ok := l.(partsAccounting); ok {
		if err := checkMedian("attribution parts", p.partRatios()); err != nil {
			t.record(err)
		}
		sum.parts = median(p.partRatios())
	}
	sum.layers = l.layerTimes(tree)
	return sum
}

// overheadPct is the traced operations' throughput against the same
// operations untraced, in percent (negative = slower), from the median
// ratio of each root span's duration, tracer cost included, to the
// untraced time.
func (s traceSummary) overheadPct() float64 {
	return (1/median(s.overhead) - 1) * 100
}

// report prints the layer shares of the workload's own leg to stderr.
func (s traceSummary) report(workload string) {
	var total time.Duration
	var names []string
	for n, d := range s.layers {
		total += d
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return s.layers[names[a]] > s.layers[names[b]] })
	fmt.Fprintf(os.Stderr, "pathbench: %s layer shares over %d traced ops (median accounted/untraced %.3f):",
		workload, len(s.ratios), median(s.ratios))
	if s.parts != 0 {
		fmt.Fprintf(os.Stderr, " (median attribution parts/serial %.3f)", s.parts)
	}
	for _, n := range names {
		fmt.Fprintf(os.Stderr, " %s %.1f%%", n, 100*s.layers[n].Seconds()/total.Seconds())
	}
	fmt.Fprintln(os.Stderr)
}

func mergeInto(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}

// mix derives an independent stream seed (splitmix64 finalizer).
func mix(seed, stream int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// stopwatch reads both clocks. End-to-end timings are the CPU time the
// process used (user and system, all threads), because the kernel does
// not charge hypervisor steal to it: on the shared VM the benchmark was
// built on, steal took up to a third of wall time in phases lasting
// minutes, and a wall-clock median would have measured the neighbours.
// The traced run's spans and its accounting check use wall time.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

func (s stopwatch) stop() (wall, cpu time.Duration) {
	return time.Since(s.wall), cpuTime() - s.cpu
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
