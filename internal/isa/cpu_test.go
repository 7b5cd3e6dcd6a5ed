package isa

import (
	"fmt"
	"reflect"
	"testing"
)

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// lockStep runs the predecoded CPU and the reference stepper side by side
// for up to limit steps, stepping on through the first few faults (a
// faulted step may have side effects a retry observes), and fails at the
// first step after which they disagree on registers, EIP, flags, output,
// step count, halted state or error text.
func lockStep(t *testing.T, img *Image, input []int64, limit int) {
	t.Helper()
	const faultRetries = 8
	ref := NewRefCPU(img, input)
	cpu := NewCPU(img, input)
	faults := 0
	for i := 0; i < limit && faults <= faultRetries; i++ {
		refErr, err := errText(ref.Step()), errText(cpu.Step())
		if refErr != err || ref.Regs != cpu.Regs || ref.EIP != cpu.EIP || ref.Flags != cpu.Flags ||
			ref.Steps != cpu.Steps || ref.Halted() != cpu.Halted() || !reflect.DeepEqual(ref.Output, cpu.Output) {
			t.Fatalf("step %d diverges from the reference:\n ref: err=%q regs=%x eip=%#x flags=%d steps=%d halted=%v out=%v\n got: err=%q regs=%x eip=%#x flags=%d steps=%d halted=%v out=%v",
				i, refErr, ref.Regs, ref.EIP, ref.Flags, ref.Steps, ref.Halted(), ref.Output,
				err, cpu.Regs, cpu.EIP, cpu.Flags, cpu.Steps, cpu.Halted(), cpu.Output)
		}
		if refErr != "" {
			faults++ // a step after halt counts too
		}
	}
}

// memProbe stores a marker word at addr, loads it back and outputs it;
// any of the three may fault.
func memProbe(addr uint32) *Unit {
	b := NewBuilder()
	b.AllocData(10) // the data section ends mid-word
	b.MovImm(EAX, 0x11223344).StoreAbs(addr, EAX)
	b.LoadAbs(EBX, addr).Out(EBX)
	b.LoadAbs(ECX, addr+0x1000).Out(ECX) // usually untouched: reads zero
	b.Hlt()
	return b.Unit()
}

// edgeAddrs are word addresses at every region and page boundary of a
// small program's layout: text at TextBase, a 10-byte data section at
// TextBase+0x1000, stack/heap from there to StackTop.
func edgeAddrs() []uint32 {
	db := TextBase + dataAlign
	return []uint32{
		TextBase - 2, TextBase, TextBase + 1, TextBase + 40, // text and its ends
		db - 4, db - 2, db, db + 3, db + 6, db + 7, db + 8, db + 10, db + 11, // data section ends
		0x0a000000, 0x0a000ffc, 0x0a000ffd, 0x0a000ffe, 0x0a000fff, 0x0a3ffffe, // page and directory boundaries
		StackTop - 8, StackTop - 4, StackTop - 3, StackTop - 1, StackTop, // top of the stack
		0, 0xfffffffe, 0xffffffff, // wraparound
	}
}

func TestCPUMatchesReferenceAtMemoryEdges(t *testing.T) {
	for _, addr := range edgeAddrs() {
		img, err := Assemble(memProbe(addr))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("%#x", addr), func(t *testing.T) { lockStep(t, img, nil, 16) })
	}
}

// TestCPUMatchesReferenceOnOddLayouts runs the probes on images whose
// regions overlap, wrap or leave no stack/heap, where the word fast paths
// must stand aside for the byte-wise region order (text, data, stack/heap).
func TestCPUMatchesReferenceOnOddLayouts(t *testing.T) {
	layouts := []struct {
		name     string
		dataBase uint32
		data     int
	}{
		{"data-overlaps-text", TextBase + 8, 64},
		{"data-below-text", TextBase - 32, 64},
		{"text-inside-stack", TextBase - 64, 16},
		{"data-wraps", 0xfffffff0, 64},
		{"data-above-stack", StackTop + 16, 64},
		{"data-ends-at-stack-top", StackTop - 64, 64},
		{"no-data", TextBase + dataAlign, 0},
		{"tiny-data", TextBase + dataAlign, 3},
	}
	for _, l := range layouts {
		addrs := append(edgeAddrs(), l.dataBase-2, l.dataBase, l.dataBase+uint32(l.data)-2, l.dataBase+uint32(l.data))
		for _, addr := range addrs {
			img, err := Assemble(memProbe(addr))
			if err != nil {
				t.Fatal(err)
			}
			img.DataBase = l.dataBase
			img.Data = make([]byte, l.data)
			for i := range img.Data {
				img.Data[i] = byte(i*7 + 1)
			}
			t.Run(fmt.Sprintf("%s/%#x", l.name, addr), func(t *testing.T) { lockStep(t, img, nil, 16) })
		}
	}
}

func TestCPUMatchesReferenceOnFaultsAndOddControlFlow(t *testing.T) {
	cases := map[string]func(b *Builder){
		"invalid-registers": func(b *Builder) {
			b.Raw(Ins{Op: OLoad, R1: 9, R2: ESP, Imm: -4})
		},
		"pop-invalid-register": func(b *Builder) { b.Raw(Ins{Op: OPop, R1: 12}) },
		"store-invalid-base":   func(b *Builder) { b.Raw(Ins{Op: OStore, R1: 8, R2: EAX}) },
		"alu-invalid":          func(b *Builder) { b.Raw(Ins{Op: OAdd, R1: EAX, R2: 200}) },
		"push-at-stack-top": func(b *Builder) {
			b.MovImm(ESP, StackTop+2).Push(EAX).Push(EBX).Pop(ECX).Out(ECX)
		},
		"push-into-data": func(b *Builder) {
			b.MovImm(ESP, TextBase+dataAlign+12).MovImm(EAX, 0xdeadbeef).Push(EAX).Push(EAX).Push(EAX).Pop(EBX).Out(EBX)
		},
		"jump-mid-instruction": func(b *Builder) {
			b.MovImm(EAX, TextBase+2).JmpReg(EAX)
		},
		"jump-outside-text": func(b *Builder) { b.MovImm(EAX, 0x1000).JmpReg(EAX) },
		"ret-to-zero":       func(b *Builder) { b.MovImm(EAX, 0).Push(EAX).Ret() },
		"indexed-wrap": func(b *Builder) {
			b.MovImm(EAX, 0x40000000).MovImm(ECX, 77).StoreIdx(0x0b000000, EAX, 4, ECX).
				LoadIdx(EDX, 0x0b000000, EAX, 4).Out(EDX)
		},
		"flags-and-shifts": func(b *Builder) {
			b.MovImm(EAX, 0x80000001).ShlImm(EAX, 33).ShrImm(EAX, 200).PushF().Neg(EAX).PopF().
				Not(EAX).CmpImm(EAX, 5).PushF().Pop(EBX).Out(EBX).MulImm(EAX, 3).Out(EAX)
		},
		"division-by-zero": func(b *Builder) { b.MovImm(EAX, 9).UMod(EAX, EBX) },
		"input-exhausted": func(b *Builder) {
			b.In(EAX).In(EBX).In(ECX).Out(EAX).Out(EBX).Out(ECX)
		},
	}
	for name, build := range cases {
		b := NewBuilder()
		b.AllocData(10)
		build(b)
		b.Hlt()
		img, err := Assemble(b.Unit())
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { lockStep(t, img, []int64{5, -3}, 64) })
	}
}

// TestPeekMatchesDecodeAt checks the predecoded table against DecodeAt at
// every offset of a text with instructions at every alignment, before and
// after the offset has been decoded once.
func TestPeekMatchesDecodeAt(t *testing.T) {
	img, err := Assemble(buildCountdown(3))
	if err != nil {
		t.Fatal(err)
	}
	text := append(append([]byte(nil), img.Text...), byte(OLoad), 1, 2, 0xfc, 0xff, 0xff, 0xff, byte(OJl), 0xf0, 0xff, 0xff, 0xff, byte(opCount), byte(OStoreIdx), 1)
	fake := &Image{Text: text, TextBase: TextBase, DataBase: TextBase + dataAlign}
	cpu := NewCPU(fake, nil)
	for off := uint32(0); off <= uint32(len(text))+1; off++ {
		want, wantErr := DecodeAt(text, TextBase, TextBase+off)
		for pass := 0; pass < 2; pass++ {
			cpu.EIP = TextBase + off
			got, err := cpu.Peek()
			if errText(err) != errText(wantErr) || got != want {
				t.Fatalf("offset %d pass %d: Peek = %+v, %v; DecodeAt = %+v, %v", off, pass, got, err, want, wantErr)
			}
		}
	}
}

func TestCollectProfileMatchesReference(t *testing.T) {
	u := buildCountdown(7)
	got, err := CollectProfile(u, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RefCollectProfile(u, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("profile %v, reference %v", got, want)
	}
}
