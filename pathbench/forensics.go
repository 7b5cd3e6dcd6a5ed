package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"time"

	"pathmark/internal/attacks"
	"pathmark/internal/feistel"
	"pathmark/internal/obs"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
	"pathmark/internal/workloads"
)

// survivedAttacks and destroyingAttacks are the verdicts EXPERIMENTS.md
// §5.1.2 records for the Java-side attack catalog (and the paper states
// in §5.1.2): every distortive attack is survived, branch insertion and
// the class-encryption analog destroy the mark. They are the expected
// verdicts of the forensics leg, written down here rather than read from
// attacks.Attack.Destroys so the check does not trust the code it checks.
var survivedAttacks = []string{
	"nop-insertion-light", "nop-insertion-heavy", "dead-code-insertion",
	"block-split", "goto-chaining", "branch-sense-inversion",
	"block-reordering", "block-copying", "statement-reordering",
	"constant-obfuscation", "arithmetic-identity", "strength-substitution",
	"local-renumbering", "static-renumbering", "method-reordering",
	"method-wrapping", "call-indirection", "method-inlining",
	"method-merging", "dead-method-insertion", "loop-peeling",
	"peephole-optimization",
}

var destroyingAttacks = []string{"branch-insertion", "class-encryption(flattening)"}

// excludedAttack is left out of the suspect mix: one recognition of a
// flattened CaffeineMark takes about 7.5 s and 23 M trace bits, as long
// as about 400 ordinary recognitions, so a handful of them would be the
// whole run.
const excludedAttack = "class-encryption(flattening)"

// forensicsEmbedEvery places one fleet embed after every four
// recognitions, and each embed makes four copies (forensicsBatch): one
// recognition per copy made, as in the fleet experiment of EXPERIMENTS.md,
// which embeds a fleet and then grades every copy it made. Four copies is
// that experiment's smallest fleet and the tournament's fleet size. The
// recognize:embed mix sets the wm share of the traced run; the shares at
// a second mix are recorded in README.md.
const (
	forensicsEmbedEvery = 5
	forensicsBatch      = 4
)

// Embedding placement seeds are fixed per copy, like the host programs:
// a copy's trace length depends on where its pieces land, and on
// CaffeineMark it is heavy-tailed (over 400 placements: median 36 k
// bits, p99 0.8 M, max 2.5 M), so placements drawn per seed would
// make each seed's cost depend on whether it drew a tail copy. Copy i of
// the suspect fleet uses suspectPlacement+i (EmbedBatch's per-copy
// shift); embed batch b uses batchPlacement onward.
//
// For the same reason the suspect layout is fixed: which copies are
// attacked, by which attack, and each attack's randomness come from the
// constant suspectLayout, not from the seed. They move trace length as
// much as placement does: drawn per seed, the branch-insertion copy
// traced to 87 k bits on one seed and to 1.27 M on another, and that one
// recognition set the run's peak memory (109 MB against 189 MB). The
// seed still draws every key and watermark.
const (
	suspectPlacement = 1
	batchPlacement   = 1001
	suspectLayout    = 1
)

// suspect is one program handed to recognition with its expected
// verdict: want is the fingerprint it was marked with, match whether
// recognition must recover it.
type suspect struct {
	prog   *vm.Program
	want   *big.Int
	match  bool
	attack string
}

// forensics recognizes fingerprinted copies with the vendor key,
// interleaved with fleet embeds of new customers' copies.
type forensics struct {
	full     bool
	host     *vm.Program
	key      *wm.Key
	wbits    int
	suspects []suspect
	batches  [][]*big.Int // watermarks of the fleet embed operations

	recognize []time.Duration // untraced recognitions' CPU times
	embed     []time.Duration // untraced EmbedBatch calls' CPU times
	copies    int             // copies those calls made

	t forensicsTraced
}

// forensicsTraced holds the traced run's per-layer samples.
type forensicsTraced struct {
	vm          vmSamples
	scan        scanSamples
	embedStages map[string][]time.Duration
}

func newForensics(seed int64, full bool) (*forensics, error) {
	rng := rand.New(rand.NewSource(seed))
	f := &forensics{full: full, wbits: 128}
	plain := 12
	if full {
		f.host = workloads.CaffeineMark()
	} else {
		f.wbits = 64
		plain = 8
		f.host = workloads.JessLike(smallJess)
	}
	key, err := wm.NewKey(nil, feistel.KeyFromUint64(rng.Uint64(), rng.Uint64()), f.wbits)
	if err != nil {
		return nil, err
	}
	f.key = key

	expect := map[string]bool{}
	for _, n := range survivedAttacks {
		expect[n] = true
	}
	for _, n := range destroyingAttacks {
		expect[n] = false
	}
	var mix []attacks.Attack
	for _, a := range attacks.Catalog() {
		if _, known := expect[a.Name]; !known {
			return nil, fmt.Errorf("attack %q has no recorded verdict", a.Name)
		}
		if a.Name != excludedAttack {
			mix = append(mix, a)
		}
	}
	// The recorded verdicts are CaffeineMark's, so only the full-size leg
	// attacks its copies. The small leg's no-match check is the unmarked
	// host, appended below.
	if !full {
		mix = nil
	}

	// About a third of the full leg's suspects are plain copies; every
	// other catalog attack is applied to exactly one copy.
	n := plain + len(mix)
	ws := make([]*big.Int, n)
	for i := range ws {
		ws[i] = wm.RandomWatermark(f.wbits, rng.Uint64())
	}
	fleet, err := wm.EmbedBatch(f.host, ws, key, wm.BatchOptions{EmbedOptions: wm.EmbedOptions{Seed: suspectPlacement}})
	if err != nil {
		return nil, err
	}
	layout := rand.New(rand.NewSource(suspectLayout))
	for j, c := range layout.Perm(n) {
		s := suspect{prog: fleet[c].Program, want: ws[c], match: true}
		if j >= plain {
			a := mix[j-plain]
			if s.prog, err = attacks.Run(a, s.prog, rand.New(rand.NewSource(layout.Int63()))); err != nil {
				return nil, err
			}
			s.attack, s.match = a.Name, expect[a.Name]
		}
		f.suspects = append(f.suspects, s)
	}
	if !full {
		f.suspects = append(f.suspects, suspect{prog: f.host, want: ws[0], attack: "none, unmarked host"})
	}
	for b := 0; b < 8; b++ {
		batch := make([]*big.Int, forensicsBatch)
		for i := range batch {
			batch[i] = wm.RandomWatermark(f.wbits, rng.Uint64())
		}
		f.batches = append(f.batches, batch)
	}
	f.t.embedStages = map[string][]time.Duration{}
	return f, nil
}

func (f *forensics) period() int { return forensicsEmbedEvery }

// minOps gives the full leg 208 recognitions, twenty beyond p90, and 52
// embeds. The small leg's operations take a few milliseconds each, so it
// runs twice as many to keep its totals above the host's noise.
func (f *forensics) minOps() int {
	if f.full {
		return 260
	}
	return 520
}

func (f *forensics) isEmbed(i int) bool { return i%forensicsEmbedEvery == forensicsEmbedEvery-1 }

func (f *forensics) suspectFor(i int) suspect {
	return f.suspects[(i-i/forensicsEmbedEvery)%len(f.suspects)]
}

func (f *forensics) batchFor(i int) ([]*big.Int, int64) {
	b := i / forensicsEmbedEvery
	return f.batches[b%len(f.batches)], batchPlacement + int64(len(f.batches[0])*(b%len(f.batches)))
}

func (f *forensics) checkRecognition(s suspect, rec *wm.Recognition, err error) error {
	if err != nil {
		return fmt.Errorf("recognize (%s): %w", s.attack, err)
	}
	if rec.Matches(s.want) != s.match {
		return fmt.Errorf("recognize after %q: match=%v, expected %v", s.attack, !s.match, s.match)
	}
	return nil
}

// checkBatch recognizes one copy of an embed batch (untimed): it must
// carry the watermark it was given.
func (f *forensics) checkBatch(fps []wm.Fingerprint, ws []*big.Int, i int) error {
	if len(fps) != len(ws) {
		return fmt.Errorf("EmbedBatch returned %d copies for %d watermarks", len(fps), len(ws))
	}
	c := (i / forensicsEmbedEvery) % len(ws)
	rec, err := wm.Recognize(fps[c].Program, f.key)
	if err != nil {
		return fmt.Errorf("recognize embedded copy: %w", err)
	}
	if !rec.Matches(ws[c]) {
		return fmt.Errorf("embedded copy %d does not carry its watermark", c)
	}
	return nil
}

func (f *forensics) op(i int) (time.Duration, error) {
	if f.isEmbed(i) {
		ws, seed := f.batchFor(i)
		sw := startWatch()
		fps, err := wm.EmbedBatch(f.host, ws, f.key, wm.BatchOptions{EmbedOptions: wm.EmbedOptions{Seed: seed}})
		d, cpu := sw.stop()
		if err != nil {
			return d, fmt.Errorf("EmbedBatch: %w", err)
		}
		f.embed = append(f.embed, cpu)
		f.copies += len(fps)
		return d, f.checkBatch(fps, ws, i)
	}
	s := f.suspectFor(i)
	sw := startWatch()
	rec, err := wm.Recognize(s.prog, f.key)
	d, cpu := sw.stop()
	f.recognize = append(f.recognize, cpu)
	return d, f.checkRecognition(s, rec, err)
}

func (f *forensics) tracedOp(i int, rec *recorder) (int, error) {
	if f.isEmbed(i) {
		ws, seed := f.batchFor(i)
		root := rec.begin("op.embed", -1, i)
		reg := obs.NewRegistry()
		call := rec.begin("wm.embed_batch", root, i)
		fps, err := wm.EmbedBatch(f.host, ws, f.key, wm.BatchOptions{EmbedOptions: wm.EmbedOptions{Seed: seed, Obs: reg}})
		rec.end(call)
		rec.importStages(reg, "wm.", call)
		rec.end(root)
		if err != nil {
			return root, err
		}
		// EmbedBatch records only its shared stages; one plain Embed of
		// the first copy records every per-copy stage as well.
		probe := rec.begin("probe.embed", -1, i)
		reg = obs.NewRegistry()
		call = rec.begin("wm.embed", probe, i)
		_, _, perr := wm.Embed(f.host, ws[0], f.key, wm.EmbedOptions{Seed: seed, Obs: reg})
		rec.end(call)
		for name, d := range rec.importStages(reg, "wm.", call) {
			f.t.embedStages[name] = append(f.t.embedStages[name], d)
		}
		rec.end(probe)
		if perr != nil {
			return root, perr
		}
		return root, f.checkBatch(fps, ws, i)
	}

	s := f.suspectFor(i)
	workers := runtime.GOMAXPROCS(0) // what wm.Recognize fans the scan out to
	root := rec.begin("op.recognize", -1, i)
	bits, err := f.t.vm.trace(rec, root, i, s.prog, f.key.Input)
	var r *wm.Recognition
	if err == nil {
		r, err = f.t.scan.recognize(rec, root, i, bits, f.key, workers)
	}
	rec.end(root)
	if err := f.checkRecognition(s, r, err); err != nil {
		return root, err
	}
	probe := rec.begin("probe.recognize", -1, i)
	defer rec.end(probe)
	if err := f.t.vm.probe(rec, probe, i, s.prog, f.key.Input); err != nil {
		return root, err
	}
	return root, f.t.scan.probe(rec, probe, i, bits, f.key, workers, r)
}

func (f *forensics) endToEnd() map[string]float64 {
	lat := msList(f.recognize)
	return map[string]float64{
		"recognize_ms_p50":   median(lat),
		"recognize_ms_p90":   quantile(lat, 0.9),
		"embed_copies_per_s": float64(f.copies) / sumDur(f.embed).Seconds(),
	}
}

func (f *forensics) perLayer() map[string]float64 {
	m := map[string]float64{}
	f.t.vm.metrics(m)
	f.t.scan.metrics(m)
	for _, stage := range []string{"trace", "sites", "codegen", "apply"} {
		if ds := f.t.embedStages["wm.embed."+stage]; len(ds) > 0 {
			m["wm.embed."+stage+"_ms"] = median(msList(ds))
		}
	}
	return m
}

func (f *forensics) layerTimes(tree map[string]time.Duration) map[string]time.Duration { return tree }
