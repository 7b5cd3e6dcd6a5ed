package isa

import "testing"

// FuzzDecodeAt feeds arbitrary bytes to the decoder: it must either
// decode or error, never panic, and decoding must stay within the text.
// The CPU's predecoded table must return the same decoding or error, on
// first use and from the table.
func FuzzDecodeAt(f *testing.F) {
	img, err := Assemble(buildCountdown(3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img.Text, uint32(0))
	f.Add([]byte{0xff, 0x00, 0x01}, uint32(0))
	f.Add([]byte{byte(OJmp), 0, 0, 0, 0}, uint32(0))
	f.Fuzz(func(t *testing.T, text []byte, off uint32) {
		d, err := DecodeAt(text, TextBase, TextBase+off)
		cpu := NewCPU(&Image{Text: text, TextBase: TextBase}, nil)
		cpu.EIP = TextBase + off
		for pass := 0; pass < 2; pass++ {
			if p, perr := cpu.Peek(); p != d || errText(perr) != errText(err) {
				t.Fatalf("Peek = %+v, %v; DecodeAt = %+v, %v", p, perr, d, err)
			}
		}
		if err != nil {
			return
		}
		if d.Len == 0 || int(off)+int(d.Len) > len(text) {
			t.Fatalf("decoded length %d escapes text of %d bytes at offset %d", d.Len, len(text), off)
		}
	})
}

// FuzzParseAsm checks the textual assembler never panics and that accepted
// programs assemble.
func FuzzParseAsm(f *testing.F) {
	f.Add(asmCountdown)
	f.Add("  mov eax, 1\n  hlt\n")
	f.Add("data 4\nx:\n  jmp x\n")
	f.Add("\x00\xff:")
	f.Fuzz(func(t *testing.T, src string) {
		u, err := ParseAsm(src)
		if err != nil {
			return
		}
		if _, err := Assemble(u); err != nil {
			t.Fatalf("ParseAsm accepted a unit Assemble rejects: %v", err)
		}
	})
}

// FuzzCPUOnRandomText loads arbitrary bytes as a text section, and a
// copy of them as the data section, and runs the CPU in lock-step with the
// reference stepper: it must halt, fault, or hit the step limit — never
// panic — and after every step both must agree on the machine state.
func FuzzCPUOnRandomText(f *testing.F) {
	img, err := Assemble(buildCountdown(2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img.Text)
	f.Add([]byte{byte(OHlt)})
	f.Add([]byte{byte(ORet), 0xab, 0x12})
	for _, addr := range edgeAddrs() {
		img, err := Assemble(memProbe(addr))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img.Text)
	}
	f.Fuzz(func(t *testing.T, text []byte) {
		if len(text) == 0 {
			return
		}
		fake := &Image{
			Text:     append([]byte(nil), text...),
			Data:     append([]byte(nil), text...),
			TextBase: TextBase,
			DataBase: TextBase + alignUp(uint32(len(text)), dataAlign),
			Entry:    TextBase,
		}
		lockStep(t, fake, []int64{1, 2}, 10_000)
	})
}
