package nativewm

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"pathmark/internal/isa"
)

// ctxCheckSteps is how often the single-stepping tracers poll their
// context: every few thousand machine steps, cheap enough to be invisible
// against the step cost yet prompt enough (well under a
// millisecond of work) that cancellation and deadlines feel immediate.
const ctxCheckSteps = 4096

// ctxErr reports a nil-safe context error.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// TracerKind selects the §4.2.3 extraction strategy.
type TracerKind int

const (
	// SimpleTracer identifies each a_i as the address of the instruction
	// that transferred control into the branch function — the call site
	// for a direct call, but the trampoline for a rerouted entry, which is
	// exactly how §5.2.2(5) defeats it.
	SimpleTracer TracerKind = iota
	// SmartTracer tracks the value of the hash input (the return address
	// the call pushed) and derives a_i from it, surviving rerouting.
	SmartTracer
)

func (t TracerKind) String() string {
	if t == SimpleTracer {
		return "simple"
	}
	return "smart"
}

// MisReturn is one observed branch-function dispatch: a call whose ret
// transferred control somewhere other than the fall-through address.
type MisReturn struct {
	Site     uint32 // address of the call instruction
	Target   uint32 // the call's static target
	Expected uint32 // the pushed return address (the hash input)
	Actual   uint32 // where the ret really went (b_i)
}

// TraceMisReturns single-steps the image on the input and records every
// mis-returning call — the §4.2.3 observation that identifies the branch
// function. It stops at the step limit or when the machine halts. It is
// TraceMisReturnsContext with no cancellation.
func TraceMisReturns(img *isa.Image, input []int64, stepLimit int64) ([]MisReturn, error) {
	return TraceMisReturnsContext(nil, img, input, stepLimit)
}

// TraceMisReturnsContext is TraceMisReturns bounded by a context: the
// step loop polls ctx every ctxCheckSteps machine steps and returns the
// events observed so far together with the context's error once it is
// done. A nil ctx disables the checks.
func TraceMisReturnsContext(ctx context.Context, img *isa.Image, input []int64, stepLimit int64) ([]MisReturn, error) {
	if stepLimit == 0 {
		stepLimit = 50_000_000
	}
	cpu := isa.NewCPU(img, input)
	type frame struct {
		site, target, expect uint32
	}
	var shadow []frame
	var events []MisReturn
	for !cpu.Halted() && cpu.Steps < stepLimit {
		if ctx != nil && cpu.Steps%ctxCheckSteps == 0 {
			if err := ctx.Err(); err != nil {
				return events, fmt.Errorf("nativewm: trace cancelled after %d steps: %w", cpu.Steps, err)
			}
		}
		d, err := cpu.Peek()
		if err != nil {
			return events, err
		}
		isCall := d.Ins.Op == isa.OCall
		isRet := d.Ins.Op == isa.ORet
		site := cpu.EIP
		if err := cpu.Step(); err != nil {
			return events, err
		}
		if isCall {
			shadow = append(shadow, frame{site: site, target: d.AbsTarget, expect: site + d.Len})
		}
		if isRet && len(shadow) > 0 {
			top := shadow[len(shadow)-1]
			shadow = shadow[:len(shadow)-1]
			if cpu.EIP != top.expect {
				events = append(events, MisReturn{
					Site: top.site, Target: top.target,
					Expected: top.expect, Actual: cpu.EIP,
				})
			}
		}
	}
	return events, nil
}

// Extraction is the result of watermark extraction.
type Extraction struct {
	Bits      []bool
	Watermark *big.Int
	Sites     []uint32 // the a_i the tracer deduced
}

// Extract recovers the watermark from a (possibly attacked) image by
// dynamic tracing between mark.Begin and mark.End (§4.2.3). The input
// must drive execution through the begin→end edge. It is ExtractContext
// with no cancellation.
func Extract(img *isa.Image, input []int64, mark Mark, kind TracerKind, stepLimit int64) (*Extraction, error) {
	return ExtractContext(nil, img, input, mark, kind, stepLimit)
}

// ExtractContext is Extract bounded by a context: the step loop polls ctx
// every ctxCheckSteps machine steps, so an attacked image that spins
// without reaching the end marker degrades into a prompt cancellation
// error instead of burning the whole step budget. A nil ctx disables the
// checks.
func ExtractContext(ctx context.Context, img *isa.Image, input []int64, mark Mark, kind TracerKind, stepLimit int64) (*Extraction, error) {
	if stepLimit == 0 {
		stepLimit = 50_000_000
	}
	cpu := isa.NewCPU(img, input)
	type frame struct {
		site, target, expect uint32
	}
	var shadow []frame
	tracking := false
	type pair struct{ a, b uint32 }
	var events []pair
	for !cpu.Halted() && cpu.Steps < stepLimit {
		if ctx != nil && cpu.Steps%ctxCheckSteps == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("nativewm: extraction cancelled after %d steps: %w", cpu.Steps, err)
			}
		}
		if cpu.EIP == mark.Begin {
			tracking = true
		}
		d, err := cpu.Peek()
		if err != nil {
			return nil, fmt.Errorf("nativewm: extraction trace faulted: %w", err)
		}
		isCall := d.Ins.Op == isa.OCall
		isRet := d.Ins.Op == isa.ORet
		site := cpu.EIP
		if err := cpu.Step(); err != nil {
			return nil, fmt.Errorf("nativewm: extraction trace faulted: %w", err)
		}
		if isCall {
			shadow = append(shadow, frame{site: site, target: d.AbsTarget, expect: site + d.Len})
		}
		if isRet && len(shadow) > 0 {
			top := shadow[len(shadow)-1]
			shadow = shadow[:len(shadow)-1]
			if cpu.EIP != top.expect && tracking {
				a := deduceSite(img, top.site, top.target, top.expect, kind)
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
	ext := &Extraction{}
	for i := 0; i < mark.Bits; i++ {
		// Forward jump encodes 1, backward 0 (§4.2.1).
		ext.Bits = append(ext.Bits, events[i].b > events[i].a)
		ext.Sites = append(ext.Sites, events[i].a)
	}
	ext.Watermark = BitsToInt(ext.Bits)
	return ext, nil
}

func deduceSite(img *isa.Image, callSite, callTarget, expect uint32, kind TracerKind) uint32 {
	switch kind {
	case SmartTracer:
		// The hash input is the pushed return address; the site precedes
		// it by the call length.
		return expect - 5
	default:
		// The simple tracer reports the address of the instruction that
		// transferred control into the branch function: the call itself
		// for a direct call, the trampoline when the call target is an
		// unconditional jmp (a rerouted entry).
		if d, err := isa.DecodeAt(img.Text, img.TextBase, callTarget); err == nil && d.Ins.Op == isa.OJmp {
			return callTarget
		}
		return callSite
	}
}

// VerifyRoundTrip embeds-then-extracts in-process; used by tests and the
// experiment harness to validate an embedding end to end.
func VerifyRoundTrip(u *isa.Unit, w *big.Int, bits int, input []int64, opts EmbedOptions) error {
	marked, report, err := Embed(u, w, bits, opts)
	if err != nil {
		return err
	}
	img, err := isa.Assemble(marked)
	if err != nil {
		return err
	}
	ext, err := Extract(img, input, report.Mark, SmartTracer, 0)
	if err != nil {
		return err
	}
	low := new(big.Int).Set(w)
	if ext.Watermark.Cmp(low) != 0 {
		return errors.New("nativewm: extracted watermark differs from embedded")
	}
	return nil
}
