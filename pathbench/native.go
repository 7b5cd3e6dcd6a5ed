package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"pathmark/internal/isa"
	"pathmark/internal/nativewm"
	"pathmark/internal/obs"
	"pathmark/internal/wm"
	"pathmark/internal/workloads"
)

const nativeBits = 128

// nativeMarks is how many watermarks each kernel's pipelines cycle
// through at full size; pipeline i embeds with the fixed placement seed
// i mod (kernels × marks), so inputs repeat with that period. Embedding
// cost is heavy-tailed in the watermark (1 to 122 ms for twolf), so a
// run must average many draws or one expensive draw decides it. The
// small leg draws a distinct watermark for each of its pipelines.
const (
	nativeMarks      = 20
	nativeSmallPipes = 40
)

// native runs the full native pipeline per kernel: embed with
// tamper-proofing, assemble, execute the ref input against the unmarked
// output, and extract with both tracers.
type native struct {
	full    bool
	marks   int // watermarks per kernel
	kernels []workloads.NativeKernel
	base    []*isa.RunResult // unmarked ref runs
	clean   []*isa.Image     // unmarked images, for the no-match extraction
	ws      [][]*big.Int     // per kernel, the watermarks rounds cycle through

	pipeline []time.Duration // untraced pipelines' CPU times
	extract  []time.Duration // untraced extractions' CPU times

	t nativeTraced
}

type nativeTraced struct {
	embed, assemble, execute, simple, smart []time.Duration
	stages                                  map[string][]time.Duration
	steps, slowdown                         []float64
}

func newNative(seed int64, full bool) (*native, error) {
	rng := rand.New(rand.NewSource(seed))
	n := &native{full: full, marks: nativeMarks}
	if full {
		n.kernels = workloads.NativeKernels()
	} else {
		n.kernels = []workloads.NativeKernel{workloads.TwolfLike()}
		n.marks = nativeSmallPipes
	}
	for _, k := range n.kernels {
		base, err := isa.Execute(k.Unit, k.RefInput, 0)
		if err != nil {
			return nil, fmt.Errorf("%s unmarked run: %w", k.Name, err)
		}
		img, err := isa.Assemble(k.Unit)
		if err != nil {
			return nil, err
		}
		var ws []*big.Int
		for r := 0; r < n.marks; r++ {
			ws = append(ws, wm.RandomWatermark(nativeBits, rng.Uint64()))
		}
		n.base = append(n.base, base)
		n.clean = append(n.clean, img)
		n.ws = append(n.ws, ws)
	}
	n.t.stages = map[string][]time.Duration{}
	return n, nil
}

func (n *native) period() int { return len(n.kernels) }

func (n *native) minOps() int {
	if n.full {
		return len(n.kernels) // one round of every kernel
	}
	return nativeSmallPipes
}

func (n *native) opts(i int, reg *obs.Registry) nativewm.EmbedOptions {
	k := n.kernels[i%len(n.kernels)]
	return nativewm.EmbedOptions{
		Seed: int64(i % (len(n.kernels) * n.marks)), HelperDepth: 1, LabelPrefix: "w1_",
		TamperProof: true, TrainInput: k.TrainInput, Obs: reg,
	}
}

func (n *native) watermark(i int) *big.Int {
	ws := n.ws[i%len(n.kernels)]
	return ws[(i/len(n.kernels))%len(ws)]
}

// checkRun compares the marked ref run with the unmarked output.
func (n *native) checkRun(i int, res *isa.RunResult, err error) error {
	k := n.kernels[i%len(n.kernels)]
	if err != nil {
		return fmt.Errorf("%s marked run: %w", k.Name, err)
	}
	if !isa.SameOutput(n.base[i%len(n.kernels)], res) {
		return fmt.Errorf("%s: marked output differs from the unmarked output", k.Name)
	}
	return nil
}

func (n *native) checkExtract(i int, kind nativewm.TracerKind, ext *nativewm.Extraction, err error) error {
	k := n.kernels[i%len(n.kernels)]
	if err != nil {
		return fmt.Errorf("%s %s extract: %w", k.Name, kind, err)
	}
	if ext.Watermark.Cmp(n.watermark(i)) != 0 {
		return fmt.Errorf("%s %s extract recovered %x, embedded %x", k.Name, kind, ext.Watermark, n.watermark(i))
	}
	return nil
}

// checkClean extracts with the mark from the unmarked image (first round
// only, untimed): the correct verdict is that no watermark is there.
func (n *native) checkClean(i int, mark nativewm.Mark) error {
	k := n.kernels[i%len(n.kernels)]
	ext, err := nativewm.Extract(n.clean[i%len(n.kernels)], k.TrainInput, mark, nativewm.SmartTracer, 0)
	if err == nil && ext.Watermark.Cmp(n.watermark(i)) == 0 {
		return fmt.Errorf("%s: unmarked image yields the watermark", k.Name)
	}
	return nil
}

func (n *native) op(i int) (time.Duration, error) {
	k := n.kernels[i%len(n.kernels)]
	w := n.watermark(i)
	sw := startWatch()
	u, rep, err := nativewm.Embed(k.Unit, w, nativeBits, n.opts(i, nil))
	if err != nil {
		d, _ := sw.stop()
		return d, fmt.Errorf("%s embed: %w", k.Name, err)
	}
	img, err := isa.Assemble(u)
	if err != nil {
		d, _ := sw.stop()
		return d, fmt.Errorf("%s assemble: %w", k.Name, err)
	}
	res, err := isa.Execute(u, k.RefInput, 0)
	if err := n.checkRun(i, res, err); err != nil {
		d, _ := sw.stop()
		return d, err
	}
	var exts []error
	for _, kind := range []nativewm.TracerKind{nativewm.SimpleTracer, nativewm.SmartTracer} {
		esw := startWatch()
		ext, err := nativewm.Extract(img, k.TrainInput, rep.Mark, kind, 0)
		_, cpu := esw.stop()
		n.extract = append(n.extract, cpu)
		exts = append(exts, n.checkExtract(i, kind, ext, err))
	}
	d, cpu := sw.stop()
	n.pipeline = append(n.pipeline, cpu)
	for _, err := range exts {
		if err != nil {
			return d, err
		}
	}
	if i < len(n.kernels) {
		return d, n.checkClean(i, rep.Mark)
	}
	return d, nil
}

func (n *native) tracedOp(i int, rec *recorder) (int, error) {
	k := n.kernels[i%len(n.kernels)]
	w := n.watermark(i)
	root := rec.begin("op.native_mark", -1, i)
	defer rec.end(root)
	reg := obs.NewRegistry()
	call := rec.begin("nativewm.embed", root, i)
	u, rep, err := nativewm.Embed(k.Unit, w, nativeBits, n.opts(i, reg))
	rec.end(call)
	if err != nil {
		return root, err
	}
	stages := rec.importStages(reg, "", call)
	sp := rec.begin("isa.assemble", root, i)
	img, err := isa.Assemble(u)
	dAsm := rec.end(sp)
	if err != nil {
		return root, err
	}
	sp = rec.begin("isa.execute", root, i)
	res, err := isa.Execute(u, k.RefInput, 0)
	dExec := rec.end(sp)
	if err := n.checkRun(i, res, err); err != nil {
		return root, err
	}
	sp = rec.begin("nativewm.extract_simple", root, i)
	ext, err := nativewm.Extract(img, k.TrainInput, rep.Mark, nativewm.SimpleTracer, 0)
	dSimple := rec.end(sp)
	if err := n.checkExtract(i, nativewm.SimpleTracer, ext, err); err != nil {
		return root, err
	}
	sp = rec.begin("nativewm.extract_smart", root, i)
	ext, err = nativewm.Extract(img, k.TrainInput, rep.Mark, nativewm.SmartTracer, 0)
	dSmart := rec.end(sp)
	if err := n.checkExtract(i, nativewm.SmartTracer, ext, err); err != nil {
		return root, err
	}
	t := &n.t
	t.embed = append(t.embed, rec.dur(call))
	for name, d := range stages {
		t.stages[name] = append(t.stages[name], d)
	}
	t.assemble = append(t.assemble, dAsm)
	t.execute = append(t.execute, dExec)
	t.simple = append(t.simple, dSimple)
	t.smart = append(t.smart, dSmart)
	base := n.base[i%len(n.kernels)]
	t.steps = append(t.steps, float64(res.Steps))
	t.slowdown = append(t.slowdown, float64(res.Steps)/float64(base.Steps)-1)
	return root, nil
}

func (n *native) endToEnd() map[string]float64 {
	return map[string]float64{
		"native_marks_per_s":    float64(len(n.pipeline)) / sumDur(n.pipeline).Seconds(),
		"native_extract_ms_p50": median(msList(n.extract)),
	}
}

func (n *native) perLayer() map[string]float64 {
	t := &n.t
	if len(t.embed) == 0 {
		return nil
	}
	var steps float64
	for _, s := range t.steps {
		steps += s
	}
	return map[string]float64{
		"isa.instructions_per_s":     steps / sumDur(t.execute).Seconds(),
		"isa.steps":                  steps / float64(len(t.steps)),
		"isa.assemble_ms":            median(msList(t.assemble)),
		"nativewm.embed_ms":          median(msList(t.embed)),
		"nativewm.profile_ms":        median(msList(t.stages["nativewm.profile"])),
		"nativewm.sites_ms":          median(msList(t.stages["nativewm.sites"])),
		"nativewm.finalize_ms":       median(msList(t.stages["nativewm.finalize"])),
		"nativewm.extract_simple_ms": median(msList(t.simple)),
		"nativewm.extract_smart_ms":  median(msList(t.smart)),
		"nativewm.slowdown":          sum(t.slowdown) / float64(len(t.slowdown)),
	}
}

func (n *native) layerTimes(tree map[string]time.Duration) map[string]time.Duration { return tree }
