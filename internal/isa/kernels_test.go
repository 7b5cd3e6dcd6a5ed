package isa_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"pathmark/internal/isa"
	"pathmark/internal/nativeattacks"
	"pathmark/internal/nativewm"
	"pathmark/internal/workloads"
)

// diffRefSteps bounds each run of the kernel differential test: the
// reference stepper is slow enough that full ref-input runs of every
// image would dominate the package's test time.
const diffRefSteps = 500_000

// TestKernelsMatchReference pins the predecoded CPU to the reference
// stepper over every native kernel on its train and ref inputs: the
// unmarked image, a tamper-proofed embedding, and each native attack's
// output (§5.2.2). Runs must end in the same state with the same output,
// step count and error; CollectProfile and both extraction tracers must
// return what they return over the reference stepper.
func TestKernelsMatchReference(t *testing.T) {
	for ki, k := range workloads.NativeKernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			w := big.NewInt(int64(0x5a5a + ki))
			marked, rep, err := nativewm.Embed(k.Unit, w, 16, nativewm.EmbedOptions{
				Seed: int64(ki), HelperDepth: 1, LabelPrefix: "w1_", TamperProof: true, TrainInput: k.TrainInput,
			})
			if err != nil {
				t.Fatal(err)
			}
			img := mustAssemble(t, marked)
			events, err := nativewm.TraceMisReturns(img, k.TrainInput, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := refTraceMisReturns(img, k.TrainInput); !reflect.DeepEqual(events, want) {
				t.Fatalf("mis-returns %v, reference %v", events, want)
			}
			double, _, err := nativewm.Embed(marked, big.NewInt(99), 16, nativewm.EmbedOptions{
				Seed: 77, TamperProof: true, TrainInput: k.TrainInput, LabelPrefix: "w2_",
			})
			if err != nil {
				t.Fatal(err)
			}
			bypassed, err := nativeattacks.Bypass(img, events)
			if err != nil {
				t.Fatal(err)
			}
			rerouted, err := nativeattacks.Reroute(img, events)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(ki)))
			images := map[string]*isa.Image{
				"unmarked": mustAssemble(t, k.Unit),
				"marked":   img,
				"nop":      mustAssemble(t, nativeattacks.InsertNopAt(marked, 0)),
				"inverted": mustAssemble(t, nativeattacks.InvertBranchSenses(marked, rng, 1.0)),
				"double":   mustAssemble(t, double),
				"bypassed": bypassed,
				"rerouted": rerouted,
			}
			for _, in := range []struct {
				name  string
				input []int64
			}{{"train", k.TrainInput}, {"ref", k.RefInput}} {
				// Attacked images may spin: bound every run at twice the
				// unmarked run's length (embedding costs far less), and at
				// diffRefSteps, which ends the longer ref runs early.
				base, err := isa.Execute(k.Unit, in.input, 0)
				if err != nil {
					t.Fatal(err)
				}
				limit := min(2*base.Steps+100_000, diffRefSteps)
				for name, im := range images {
					ctx := fmt.Sprintf("%s/%s", name, in.name)
					compareRuns(t, ctx, im, in.input, limit)
					for _, kind := range []nativewm.TracerKind{nativewm.SimpleTracer, nativewm.SmartTracer} {
						got, gotErr := nativewm.Extract(im, in.input, rep.Mark, kind, limit)
						want, wantErr := refExtract(im, in.input, rep.Mark, kind, limit)
						if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(got, want) {
							t.Errorf("%s %s extract = %+v, %v; reference %+v, %v", ctx, kind, got, gotErr, want, wantErr)
						}
					}
				}
			}
			for _, u := range []*isa.Unit{k.Unit, marked} {
				for _, input := range [][]int64{k.TrainInput, k.RefInput} {
					got, err := isa.CollectProfile(u, input, diffRefSteps)
					want, refErr := isa.RefCollectProfile(u, input, diffRefSteps)
					if errText(err) != errText(refErr) || !reflect.DeepEqual(got, want) {
						t.Errorf("profile on %v differs from the reference (%v, %v)", input, err, refErr)
					}
				}
			}
		})
	}
}

func mustAssemble(t *testing.T, u *isa.Unit) *isa.Image {
	t.Helper()
	img, err := isa.Assemble(u)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// compareRuns runs the image to completion on both CPUs and compares the
// results and final machine state.
func compareRuns(t *testing.T, ctx string, img *isa.Image, input []int64, limit int64) {
	t.Helper()
	cpu, ref := isa.NewCPU(img, input), isa.NewRefCPU(img, input)
	got, err := cpu.Run(limit)
	want, refErr := ref.Run(limit)
	if errText(err) != errText(refErr) || !reflect.DeepEqual(got, want) ||
		cpu.Regs != ref.Regs || cpu.EIP != ref.EIP || cpu.Flags != ref.Flags || cpu.Halted() != ref.Halted() {
		t.Errorf("%s: run ends in %+v, %v (regs %x eip %#x flags %d); reference %+v, %v (regs %x eip %#x flags %d)",
			ctx, got, err, cpu.Regs, cpu.EIP, cpu.Flags, want, refErr, ref.Regs, ref.EIP, ref.Flags)
	}
}

// refTraceMisReturns is nativewm.TraceMisReturns over the reference
// stepper, decoding before every step as the tracer did before the CPU
// kept a predecoded table.
func refTraceMisReturns(img *isa.Image, input []int64) []nativewm.MisReturn {
	cpu := isa.NewRefCPU(img, input)
	type frame struct{ site, target, expect uint32 }
	var shadow []frame
	var events []nativewm.MisReturn
	for !cpu.Halted() && cpu.Steps < 50_000_000 {
		d, err := isa.DecodeAt(img.Text, img.TextBase, cpu.EIP)
		if err != nil {
			return events
		}
		site := cpu.EIP
		if err := cpu.Step(); err != nil {
			return events
		}
		if d.Ins.Op == isa.OCall {
			shadow = append(shadow, frame{site: site, target: d.AbsTarget, expect: site + d.Len})
		}
		if d.Ins.Op == isa.ORet && len(shadow) > 0 {
			top := shadow[len(shadow)-1]
			shadow = shadow[:len(shadow)-1]
			if cpu.EIP != top.expect {
				events = append(events, nativewm.MisReturn{Site: top.site, Target: top.target, Expected: top.expect, Actual: cpu.EIP})
			}
		}
	}
	return events
}

// refExtract is nativewm.Extract over the reference stepper, in the form
// it had before the predecoded CPU.
func refExtract(img *isa.Image, input []int64, mark nativewm.Mark, kind nativewm.TracerKind, limit int64) (*nativewm.Extraction, error) {
	cpu := isa.NewRefCPU(img, input)
	type frame struct{ site, target, expect uint32 }
	var shadow []frame
	tracking := false
	type pair struct{ a, b uint32 }
	var events []pair
	for !cpu.Halted() && cpu.Steps < limit {
		if cpu.EIP == mark.Begin {
			tracking = true
		}
		d, err := isa.DecodeAt(img.Text, img.TextBase, cpu.EIP)
		if err != nil {
			return nil, fmt.Errorf("nativewm: extraction trace faulted: %w", err)
		}
		site := cpu.EIP
		if err := cpu.Step(); err != nil {
			return nil, fmt.Errorf("nativewm: extraction trace faulted: %w", err)
		}
		if d.Ins.Op == isa.OCall {
			shadow = append(shadow, frame{site: site, target: d.AbsTarget, expect: site + d.Len})
		}
		if d.Ins.Op == isa.ORet && len(shadow) > 0 {
			top := shadow[len(shadow)-1]
			shadow = shadow[:len(shadow)-1]
			if cpu.EIP != top.expect && tracking {
				a := top.site
				if kind == nativewm.SmartTracer {
					a = top.expect - 5
				} else if t, err := isa.DecodeAt(img.Text, img.TextBase, top.target); err == nil && t.Ins.Op == isa.OJmp {
					a = top.target
				}
				events = append(events, pair{a: a, b: cpu.EIP})
			}
		}
		if tracking && cpu.EIP == mark.End && len(events) > 0 {
			break
		}
	}
	if len(events) < mark.Bits {
		return nil, fmt.Errorf("nativewm: trace yielded %d chain transfers, need %d", len(events), mark.Bits)
	}
	ext := &nativewm.Extraction{}
	for i := 0; i < mark.Bits; i++ {
		ext.Bits = append(ext.Bits, events[i].b > events[i].a)
		ext.Sites = append(ext.Sites, events[i].a)
	}
	ext.Watermark = nativewm.BitsToInt(ext.Bits)
	return ext, nil
}

// BenchmarkCPU runs a tamper-proofed, 128-bit marked gzip kernel on its
// ref input with the reference stepper and the predecoded CPU, reporting
// each one's simulated instructions per second.
func BenchmarkCPU(b *testing.B) {
	k := workloads.GzipLike()
	marked, _, err := nativewm.Embed(k.Unit, big.NewInt(0x5eed), 128, nativewm.EmbedOptions{
		HelperDepth: 1, LabelPrefix: "w1_", TamperProof: true, TrainInput: k.TrainInput,
	})
	if err != nil {
		b.Fatal(err)
	}
	img, err := isa.Assemble(marked)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func() (*isa.RunResult, error)
	}{
		{"reference", func() (*isa.RunResult, error) { return isa.NewRefCPU(img, k.RefInput).Run(0) }},
		{"predecoded", func() (*isa.RunResult, error) { return isa.NewCPU(img, k.RefInput).Run(0) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := c.run()
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}
