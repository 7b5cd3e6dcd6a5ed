package main

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"pathmark/internal/bitstring"
	"pathmark/internal/cache"
	"pathmark/internal/feistel"
	"pathmark/internal/jobs"
	"pathmark/internal/obs"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
	"pathmark/internal/workloads"
)

// The Jess-like hosts are fixed programs, as CaffeineMark and the native
// kernels are: the seed draws keys and watermarks, not the host.
// fullJess is the host pathmark fleet bench embeds into; gradeSmallJess
// is the fleet experiment's, large enough that a job's CPU work, not one
// slow fsync, sets its time; smallJess is the small forensics host.
var (
	fullJess       = workloads.JessLikeOptions{Seed: 8, Methods: 60, BlockSize: 150}
	gradeSmallJess = workloads.JessLikeOptions{Seed: 8, Methods: 30, BlockSize: 100}
	smallJess      = workloads.JessLikeOptions{Seed: 8, Methods: 12, BlockSize: 40, HotIters: 50}
)

// marked is one suspect of the grade leg: its program and the key index
// it was marked under (-1 = unmarked; >= len(held) = a key no job holds).
type marked struct {
	prog *vm.Program
	by   int
}

// grade runs journaled corpus jobs through jobs.Execute with the
// daemon's defaults: fsync on every record, job-scoped caches. Each job
// grades suspects against the distributor keys it holds; the keys share
// the secret input.
type grade struct {
	dir   string
	held  []*wm.Key
	ws    []*big.Int // ws[k] is the watermark marked under key k (held, then foreign)
	own   []marked   // one copy per held key
	alien []marked   // copies marked under keys no job holds
	host  marked

	jobTime []time.Duration // untraced jobs' CPU times
	pairs   int             // pairs those jobs graded

	t gradeTraced
}

type gradeTraced struct {
	vm                                   vmSamples
	scan                                 scanSamples
	digest, cold, pair                   []time.Duration
	open, runT, engine                   []time.Duration
	decryptHit, decryptEntries, traceHit []float64
	records, bytes                       []float64
	parts                                map[string]time.Duration
	partRatios                           []float64 // serial parts / serial RecognizeCorpus, per job
}

// gradeKeys is how many distributor keys a full-size job holds: the
// 16-key grade the workload was sized on (a marked Jess-like suspect
// against 16 keys). A job's suspects follow the fleet experiment of
// EXPERIMENTS.md (its smallest fleet: four leaked copies and one
// unmarked control), with one of the four marked under a key the job
// does not hold. Digesting and tracing are paid per suspect, decryption
// and scan per pair, so the layer shares move with this ratio; the
// shares at a second ratio are recorded in README.md.
const gradeKeys = 16

func newGrade(seed int64, full bool, dir string) (*grade, error) {
	rng := rand.New(rand.NewSource(seed))
	g := &grade{dir: dir}
	held, foreign := gradeKeys, 2
	host := workloads.JessLike(fullJess)
	if !full {
		held, foreign = 4, 2
		host = workloads.JessLike(gradeSmallJess)
	}
	input := []int64{rng.Int63n(1000), rng.Int63n(1000), rng.Int63n(1000)}
	for k := 0; k < held+foreign; k++ {
		key, err := wm.NewKey(input, feistel.KeyFromUint64(rng.Uint64(), rng.Uint64()), 64)
		if err != nil {
			return nil, err
		}
		w := wm.RandomWatermark(64, rng.Uint64())
		prog, _, err := wm.Embed(host, w, key, wm.EmbedOptions{Seed: suspectPlacement + int64(k)})
		if err != nil {
			return nil, err
		}
		g.ws = append(g.ws, w)
		if k < held {
			g.held = append(g.held, key)
			g.own = append(g.own, marked{prog: prog, by: k})
		} else {
			g.alien = append(g.alien, marked{prog: prog, by: k})
		}
	}
	g.host = marked{prog: host, by: -1}
	g.t.parts = map[string]time.Duration{}
	return g, nil
}

func (g *grade) period() int { return 1 }

// minOps gives eleven jobs beyond p90.
func (g *grade) minOps() int { return 110 }

// suspectsFor picks job i's suspects: three copies marked under held
// keys (consecutive keys, starting three further on each job), one
// marked under a key the job does not hold, and the unmarked host.
func (g *grade) suspectsFor(i int) []marked {
	K := len(g.own)
	return []marked{g.own[3*i%K], g.alien[i%len(g.alien)], g.own[(3*i+1)%K], g.host, g.own[(3*i+2)%K]}
}

func (g *grade) spec(sus []marked, reg *obs.Registry) jobs.Spec {
	progs := make([]*vm.Program, len(sus))
	for s, m := range sus {
		progs[s] = m.prog
	}
	return jobs.Spec{Suspects: progs, Keys: g.held, Opts: jobs.Options{Obs: reg}}
}

// checkPair compares one grade with the embedding map: the suspect must
// recover its watermark under the key it was marked with, and no
// fleet watermark under any other key.
func (g *grade) checkPair(m marked, k int, rec *wm.Recognition, err error) error {
	if err != nil {
		return fmt.Errorf("grade (suspect by %d, key %d): %w", m.by, k, err)
	}
	for wk, w := range g.ws {
		if want := wk == k && m.by == k; rec.Matches(w) != want {
			return fmt.Errorf("grade (suspect by %d, key %d): watermark %d match=%v, expected %v",
				m.by, k, wk, !want, want)
		}
	}
	return nil
}

func (g *grade) checkResult(sus []marked, res *jobs.Result) error {
	if res.Failed != 0 {
		return fmt.Errorf("job reported %d failed grades", res.Failed)
	}
	for s, m := range sus {
		for k := range g.held {
			if err := g.checkPair(m, k, res.Corpus.Recognitions[s][k], res.Corpus.Errors[s][k]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (g *grade) jobDir(i int) string { return filepath.Join(g.dir, fmt.Sprintf("job-%d", i)) }

func (g *grade) op(i int) (time.Duration, error) {
	sus := g.suspectsFor(i)
	dir := g.jobDir(i)
	sw := startWatch()
	res, err := jobs.Execute(context.Background(), dir, g.spec(sus, nil))
	d, cpu := sw.stop()
	if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		return d, fmt.Errorf("jobs.Execute: %w", err)
	}
	g.jobTime = append(g.jobTime, cpu)
	g.pairs += len(sus) * len(g.held)
	return d, g.checkResult(sus, res)
}

// tracedOp runs the job as Execute does — Open, Run, then the result
// manifest and Close — and then, as attribution calls on the same
// suspects and keys, the layers a grade passes through one at a time.
func (g *grade) tracedOp(i int, rec *recorder) (int, error) {
	sus := g.suspectsFor(i)
	dir := g.jobDir(i)
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	spec := g.spec(sus, reg)

	root := rec.begin("op.grade_job", -1, i)
	sp := rec.begin("jobs.open", root, i)
	j, err := jobs.Open(dir, spec)
	dOpen := rec.end(sp)
	if err != nil {
		rec.end(root)
		return root, err
	}
	sp = rec.begin("jobs.run", root, i)
	res, err := j.Run(context.Background())
	dRun := rec.end(sp)
	if err != nil {
		j.Close()
		rec.end(root)
		return root, err
	}
	sp = rec.begin("jobs.finish", root, i)
	if err = jobs.WriteResultFile(jobs.ResultPath(dir), res); err == nil {
		err = j.Close()
	} else {
		j.Close()
	}
	dFinish := rec.end(sp)
	rec.end(root)
	if err != nil {
		return root, err
	}
	if err := g.checkResult(sus, res); err != nil {
		return root, err
	}
	execTime := dOpen + dRun + dFinish
	t := &g.t
	t.open = append(t.open, dOpen)
	t.runT = append(t.runT, dRun)
	for _, c := range reg.Snapshot().Counters {
		switch c.Name {
		case "jobs.journal.records":
			t.records = append(t.records, float64(c.Value))
		case "jobs.journal.bytes":
			t.bytes = append(t.bytes, float64(c.Value))
		}
	}

	probe := rec.begin("probe.grade_job", -1, i)
	defer rec.end(probe)
	parts := map[string]time.Duration{}
	var serial time.Duration // the parts that split a serial RecognizeCorpus
	digests := make([]cache.Digest, len(sus))
	bits := make([]*bitstring.Bits, len(sus))
	for s, m := range sus {
		sp := rec.begin("wm.program_digest", probe, i)
		digests[s] = wm.ProgramDigest(m.prog)
		d := rec.end(sp)
		t.digest = append(t.digest, d)
		parts["wm.program_digest"] += d
		vmBefore := len(t.vm.record)
		if bits[s], err = t.vm.trace(rec, probe, i, m.prog, g.held[0].Input); err != nil {
			return root, err
		}
		if err := t.vm.probe(rec, probe, i, m.prog, g.held[0].Input); err != nil {
			return root, err
		}
		parts["vm"] += t.vm.record[vmBefore] + t.vm.decode[vmBefore]
		serial += d + t.vm.record[vmBefore] + t.vm.decode[vmBefore]
	}
	// Each pair as a job grades it (one scan worker): without a decrypt
	// cache, with a cold per-key cache, and through one job-scoped
	// FleetCaches.
	fc := wm.NewFleetCaches(0, 0)
	for s, m := range sus {
		for k, key := range g.held {
			r, err := t.scan.recognize(rec, probe, i, bits[s], key, 1)
			if err := g.checkPair(m, k, r, err); err != nil {
				return root, err
			}
			if err := t.scan.probe(rec, probe, i, bits[s], key, 1, r); err != nil {
				return root, err
			}
			dBits := t.scan.bits[len(t.scan.bits)-1]
			sp := rec.begin("cache.recognize_bits_cold", probe, i)
			_, err = wm.RecognizeBits(bits[s], key, wm.RecognizeOpts{Workers: 1, DecryptCache: cache.NewCache64(0)})
			dCold := rec.end(sp)
			if err != nil {
				return root, err
			}
			sp = rec.begin("wm.grade_pair", probe, i)
			r, err = wm.GradePair(m.prog, digests[s], key, fc, wm.CorpusOpts{})
			dPair := rec.end(sp)
			if err := g.checkPair(m, k, r, err); err != nil {
				return root, err
			}
			t.cold = append(t.cold, dCold)
			t.pair = append(t.pair, dPair)
			parts["wm.scan_vote"] += dBits
			parts["cache"] += dCold - dBits
			serial += dCold
		}
	}
	ds, ts := fc.DecryptStats(), fc.TraceStats()
	t.decryptHit = append(t.decryptHit, ds.HitRate())
	t.decryptEntries = append(t.decryptEntries, float64(ds.Misses))
	t.traceHit = append(t.traceHit, ts.HitRate())

	// The parts above split a serial RecognizeCorpus over the same
	// suspects and keys: one digest and one trace per suspect, and per
	// pair a recognition with a cold decrypt cache.
	sp = rec.begin("wm.recognize_corpus_serial", probe, i)
	_, err = wm.RecognizeCorpus(spec.Suspects, g.held, wm.CorpusOpts{Workers: 1})
	dSerial := rec.end(sp)
	if err != nil {
		return root, err
	}
	r, err := checkAccount(fmt.Sprintf("attribution of job %d", i), serial, dSerial)
	t.partRatios = append(t.partRatios, r)
	if err != nil {
		return root, err
	}

	// The engine's own cost: Execute minus RecognizeCorpus over the same
	// suspects and keys.
	sp = rec.begin("wm.recognize_corpus", probe, i)
	_, err = wm.RecognizeCorpus(spec.Suspects, g.held, wm.CorpusOpts{})
	dCorpus := rec.end(sp)
	if err != nil {
		return root, err
	}
	t.engine = append(t.engine, execTime-dCorpus)
	parts["jobs"] += execTime - dCorpus
	for name, d := range parts {
		t.parts[name] += d
	}
	return root, nil
}

func (g *grade) endToEnd() map[string]float64 {
	lat := msList(g.jobTime)
	return map[string]float64{
		"grade_pairs_per_s": float64(g.pairs) / sumDur(g.jobTime).Seconds(),
		"grade_job_ms_p50":  median(lat),
		"grade_job_ms_p90":  quantile(lat, 0.9),
	}
}

func (g *grade) perLayer() map[string]float64 {
	t := &g.t
	if len(t.open) == 0 {
		return nil
	}
	m := map[string]float64{
		"wm.grade_pair_ms":        median(msList(t.pair)),
		"wm.program_digest_ms":    median(msList(t.digest)),
		"cache.decrypt_cost_ms":   median(msList(t.cold)) - median(msList(t.scan.bits)),
		"cache.decrypt_hit_ratio": median(t.decryptHit),
		"cache.decrypt_entries":   median(t.decryptEntries),
		"cache.trace_hit_ratio":   median(t.traceHit),
		"jobs.open_ms":            median(msList(t.open)),
		"jobs.run_ms":             median(msList(t.runT)),
		"jobs.engine_ms":          median(msList(t.engine)),
		"jobs.journal_records":    median(t.records),
		"jobs.journal_bytes":      median(t.bytes),
	}
	t.vm.metrics(m)
	t.scan.metrics(m)
	return m
}

// layerTimes reports the grade leg's shares from the attribution calls:
// the accounted spans are the engine's own calls (open, run, finish),
// which do not separate digest, trace, scan and cache time. tracedOp
// checks those parts against a serial RecognizeCorpus.
func (g *grade) layerTimes(map[string]time.Duration) map[string]time.Duration {
	return g.t.parts
}

func (g *grade) partRatios() []float64 { return g.t.partRatios }
