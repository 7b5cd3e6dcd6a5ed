package isa

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Flag bits in the flags register.
const (
	FlagZF uint32 = 1 << 0
	FlagLT uint32 = 1 << 1 // signed less-than from the last cmp/arith
)

// Fault describes a trapped execution error; attacked binaries that fault
// are classified as broken.
type Fault struct {
	Addr uint32
	Msg  string
}

func (f *Fault) Error() string { return fmt.Sprintf("isa: fault at %#x: %s", f.Addr, f.Msg) }

// ErrStepLimit marks step-limit exhaustion.
var ErrStepLimit = errors.New("step limit exceeded")

// Stack/heap memory lives in pages allocated on first write and found
// through a two-level directory: an idle CPU costs only the directory,
// and a page is one index away from its address.
const (
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
	tblBits  = 10 // pages per directory entry, as a power of two
)

type (
	page      [pageSize]byte
	pageTable [1 << tblBits]*page
)

// inst is one predecoded instruction: the fields of DecodeAt's result
// that execution needs, packed into 16 bytes. A zero size marks a text
// offset not decoded yet.
type inst struct {
	op            Op
	r1, r2, scale byte
	size          uint8
	imm           uint32 // Imm as a machine word; the displacement for jmp/jcc/call
	target        uint32 // absolute destination of jmp/jcc/call
}

// decoded rebuilds the Decoded that DecodeAt returns for the instruction.
func (in *inst) decoded(addr uint32) Decoded {
	d := Decoded{Addr: addr, Len: uint32(in.size),
		Ins: Ins{Op: in.op, R1: in.r1, R2: in.r2, Scale: in.scale, Imm: int64(in.imm)}}
	switch {
	case in.op.HasRelTarget():
		d.AbsTarget = in.target
		fallthrough
	case in.op == OLoad || in.op == OStore:
		d.Ins.Imm = int64(int32(in.imm))
	}
	return d
}

// immALU maps each immediate arithmetic opcode to its register form.
var immALU = [opCount]Op{
	OAddImm: OAdd, OSubImm: OSub, OAndImm: OAnd, OOrImm: OOr,
	OXorImm: OXor, OMulImm: OMul, OCmpImm: OCmp,
}

// CPU simulates the machine. Create with NewCPU, then Run or Step.
//
// Each text offset is decoded once, on first execution, into a per-CPU
// table; the text is read-only while the CPU runs (WriteMem refuses it),
// so the table never goes stale. Attacks that patch text bytes work on
// copied images and get CPUs of their own.
type CPU struct {
	Regs  [numRegs]uint32
	EIP   uint32
	Flags uint32

	text     []byte
	textBase uint32
	code     []inst // predecoded text, indexed by EIP - textBase
	data     []byte // mutable copy of the data section
	dataBase uint32
	// dataWords and memWords count the word addresses, from dataBase and
	// memLo, whose four bytes lie in the data section or the stack/heap
	// alone; word accesses there skip the byte-wise region checks. Both
	// are 0 for layouts where the regions overlap.
	dataWords uint32
	memLo     uint32 // first stack/heap address: the end of the data section
	memWords  uint32
	dir       [StackTop >> (pageBits + tblBits)]*pageTable // stack/heap below StackTop

	input  []int64
	inPos  int
	Output []int64
	Steps  int64
	halted bool

	profile []int64 // per-text-offset execution counts, for CollectProfile
}

// NewCPU loads the image and prepares an execution with the given input
// sequence.
func NewCPU(img *Image, input []int64) *CPU {
	cpu := &CPU{
		text:     img.Text,
		textBase: img.TextBase,
		code:     make([]inst, len(img.Text)),
		data:     append([]byte(nil), img.Data...),
		dataBase: img.DataBase,
		input:    input,
		EIP:      img.Entry,
	}
	cpu.Regs[ESP] = StackTop
	textEnd := uint64(img.TextBase) + uint64(len(img.Text))
	dataEnd := uint64(img.DataBase) + uint64(len(img.Data))
	cpu.memLo = uint32(dataEnd)
	if len(img.Data) >= 4 && dataEnd <= 1<<32 &&
		(textEnd <= uint64(img.DataBase) || dataEnd <= uint64(img.TextBase)) {
		cpu.dataWords = uint32(len(img.Data)) - 3
	}
	if dataEnd+4 <= uint64(StackTop) && (textEnd <= dataEnd || img.TextBase >= StackTop) {
		cpu.memWords = StackTop - cpu.memLo - 3
	}
	return cpu
}

// Halted reports whether the CPU has executed hlt.
func (c *CPU) Halted() bool { return c.halted }

func (c *CPU) fault(msg string) error { return &Fault{Addr: c.EIP, Msg: msg} }

// badReg is kept out of line so that reg and setReg inline.
//
//go:noinline
func (c *CPU) badReg(r byte) error { return c.fault(fmt.Sprintf("invalid register %d", r)) }

// page returns the stack/heap page holding addr (below StackTop), or nil
// if nothing has been written there.
func (c *CPU) page(addr uint32) *page {
	if t := c.dir[addr>>(pageBits+tblBits)]; t != nil {
		return t[addr>>pageBits&(1<<tblBits-1)]
	}
	return nil
}

// writablePage returns the stack/heap page holding addr, allocating it.
func (c *CPU) writablePage(addr uint32) *page {
	t := c.dir[addr>>(pageBits+tblBits)]
	if t == nil {
		t = new(pageTable)
		c.dir[addr>>(pageBits+tblBits)] = t
	}
	p := t[addr>>pageBits&(1<<tblBits-1)]
	if p == nil {
		p = new(page)
		t[addr>>pageBits&(1<<tblBits-1)] = p
	}
	return p
}

// ReadMem reads one byte of memory (text, data, or stack/heap).
func (c *CPU) ReadMem(addr uint32) (byte, error) {
	switch {
	case addr >= c.textBase && addr < c.textBase+uint32(len(c.text)):
		return c.text[addr-c.textBase], nil
	case addr >= c.dataBase && addr < c.dataBase+uint32(len(c.data)):
		return c.data[addr-c.dataBase], nil
	case addr >= c.memLo && addr < StackTop:
		if p := c.page(addr); p != nil {
			return p[addr&pageMask], nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("read of unmapped address %#x", addr)
}

// WriteMem writes one byte; the text section is read-only.
func (c *CPU) WriteMem(addr uint32, v byte) error {
	switch {
	case addr >= c.textBase && addr < c.textBase+uint32(len(c.text)):
		return fmt.Errorf("write to read-only text at %#x", addr)
	case addr >= c.dataBase && addr < c.dataBase+uint32(len(c.data)):
		c.data[addr-c.dataBase] = v
		return nil
	case addr >= c.memLo && addr < StackTop:
		c.writablePage(addr)[addr&pageMask] = v
		return nil
	}
	return fmt.Errorf("write to unmapped address %#x", addr)
}

// ReadWord reads a 32-bit little-endian word.
func (c *CPU) ReadWord(addr uint32) (uint32, error) {
	if addr-c.memLo < c.memWords && addr&pageMask <= pageSize-4 {
		if p := c.page(addr); p != nil {
			return binary.LittleEndian.Uint32(p[addr&pageMask:]), nil
		}
		return 0, nil
	}
	if off := addr - c.dataBase; off < c.dataWords {
		return binary.LittleEndian.Uint32(c.data[off:]), nil
	}
	var v uint32
	for i := uint32(0); i < 4; i++ {
		b, err := c.ReadMem(addr + i)
		if err != nil {
			return 0, err
		}
		v |= uint32(b) << (8 * i)
	}
	return v, nil
}

// WriteWord writes a 32-bit little-endian word. A word that runs into an
// unwritable address keeps the bytes written before it, as byte-wise
// stores would.
func (c *CPU) WriteWord(addr uint32, v uint32) error {
	if addr-c.memLo < c.memWords && addr&pageMask <= pageSize-4 {
		binary.LittleEndian.PutUint32(c.writablePage(addr)[addr&pageMask:], v)
		return nil
	}
	if off := addr - c.dataBase; off < c.dataWords {
		binary.LittleEndian.PutUint32(c.data[off:], v)
		return nil
	}
	for i := uint32(0); i < 4; i++ {
		if err := c.WriteMem(addr+i, byte(v>>(8*i))); err != nil {
			return err
		}
	}
	return nil
}

func (c *CPU) push(v uint32) error {
	c.Regs[ESP] -= 4
	return c.WriteWord(c.Regs[ESP], v)
}

func (c *CPU) pop() (uint32, error) {
	v, err := c.ReadWord(c.Regs[ESP])
	if err != nil {
		return 0, err
	}
	c.Regs[ESP] += 4
	return v, nil
}

func (c *CPU) setFlags(result uint32, lt bool) {
	c.Flags = 0
	if result == 0 {
		c.Flags |= FlagZF
	}
	if lt {
		c.Flags |= FlagLT
	}
}

// fetch returns the instruction at EIP from the predecoded table,
// decoding it into the table on first execution. It fails with
// DecodeAt's error where DecodeAt would. Step repeats the table hit
// inline: the call would cost a fifth of a step.
func (c *CPU) fetch() (*inst, error) {
	off := c.EIP - c.textBase
	if off < uint32(len(c.code)) && c.code[off].size != 0 {
		return &c.code[off], nil
	}
	d, err := DecodeAt(c.text, c.textBase, c.EIP)
	if err != nil {
		return nil, err
	}
	in := &c.code[off]
	*in = inst{op: d.Ins.Op, r1: d.Ins.R1, r2: d.Ins.R2, scale: d.Ins.Scale,
		size: uint8(d.Len), imm: uint32(d.Ins.Imm), target: d.AbsTarget}
	return in, nil
}

// Peek returns the decoding of the instruction at EIP — what DecodeAt on
// the image's text returns, error included — from the CPU's predecoded
// table, so a tracer can inspect the next instruction without decoding
// it again.
func (c *CPU) Peek() (Decoded, error) {
	in, err := c.fetch()
	if err != nil {
		return Decoded{}, err
	}
	return in.decoded(c.EIP), nil
}

// reg reads register r, faulting on an invalid register number.
func (c *CPU) reg(r byte) (uint32, error) {
	if r >= numRegs {
		return 0, c.badReg(r)
	}
	return c.Regs[r], nil
}

// setReg writes register r, faulting on an invalid register number.
func (c *CPU) setReg(r byte, v uint32) error {
	if r >= numRegs {
		return c.badReg(r)
	}
	c.Regs[r] = v
	return nil
}

// Step executes a single instruction.
func (c *CPU) Step() error {
	if c.halted {
		return errors.New("isa: step after halt")
	}
	var in *inst
	if off := c.EIP - c.textBase; off < uint32(len(c.code)) && c.code[off].size != 0 {
		in = &c.code[off]
	} else {
		var err error
		if in, err = c.fetch(); err != nil {
			return c.fault(err.Error())
		}
	}
	if c.profile != nil {
		c.profile[c.EIP-c.textBase]++
	}
	c.Steps++
	next := c.EIP + uint32(in.size)

	switch in.op {
	case ONop:
	case OHlt:
		c.halted = true
		return nil
	case OMovImm:
		if err := c.setReg(in.r1, in.imm); err != nil {
			return err
		}
	case OMovReg:
		v, err := c.reg(in.r2)
		if err != nil {
			return err
		}
		if err := c.setReg(in.r1, v); err != nil {
			return err
		}
	case OLoad:
		base, err := c.reg(in.r2)
		if err != nil {
			return err
		}
		v, err := c.ReadWord(base + in.imm)
		if err != nil {
			return c.fault(err.Error())
		}
		if err := c.setReg(in.r1, v); err != nil {
			return err
		}
	case OStore:
		base, err := c.reg(in.r1)
		if err != nil {
			return err
		}
		v, err := c.reg(in.r2)
		if err != nil {
			return err
		}
		if err := c.WriteWord(base+in.imm, v); err != nil {
			return c.fault(err.Error())
		}
	case OLoadAbs:
		v, err := c.ReadWord(in.imm)
		if err != nil {
			return c.fault(err.Error())
		}
		if err := c.setReg(in.r1, v); err != nil {
			return err
		}
	case OStoreAbs:
		v, err := c.reg(in.r1)
		if err != nil {
			return err
		}
		if err := c.WriteWord(in.imm, v); err != nil {
			return c.fault(err.Error())
		}
	case OLoadIdx:
		idx, err := c.reg(in.r2)
		if err != nil {
			return err
		}
		v, err := c.ReadWord(in.imm + idx*uint32(in.scale))
		if err != nil {
			return c.fault(err.Error())
		}
		if err := c.setReg(in.r1, v); err != nil {
			return err
		}
	case OStoreIdx:
		idx, err := c.reg(in.r2)
		if err != nil {
			return err
		}
		v, err := c.reg(in.r1)
		if err != nil {
			return err
		}
		if err := c.WriteWord(in.imm+idx*uint32(in.scale), v); err != nil {
			return c.fault(err.Error())
		}
	case OPush:
		v, err := c.reg(in.r1)
		if err != nil {
			return err
		}
		if err := c.push(v); err != nil {
			return c.fault(err.Error())
		}
	case OPop:
		v, err := c.pop()
		if err != nil {
			return c.fault(err.Error())
		}
		if err := c.setReg(in.r1, v); err != nil {
			return err
		}
	case OPushF:
		if err := c.push(c.Flags); err != nil {
			return c.fault(err.Error())
		}
	case OPopF:
		v, err := c.pop()
		if err != nil {
			return c.fault(err.Error())
		}
		c.Flags = v
	case OAdd, OSub, OAnd, OOr, OXor, OMul, OUDiv, OUMod, OCmp,
		OAddImm, OSubImm, OAndImm, OOrImm, OXorImm, OMulImm, OCmpImm:
		a, err := c.reg(in.r1)
		if err != nil {
			return err
		}
		op, b := in.op, in.imm
		if op >= OAddImm {
			op = immALU[op]
		} else if b, err = c.reg(in.r2); err != nil {
			return err
		}
		var v uint32
		switch op {
		case OAdd:
			v = a + b
		case OSub:
			v = a - b
		case OAnd:
			v = a & b
		case OOr:
			v = a | b
		case OXor:
			v = a ^ b
		case OMul:
			v = a * b
		case OUDiv, OUMod:
			if b == 0 {
				return c.fault("division by zero")
			}
			v = a / b
			if op == OUMod {
				v = a % b
			}
		}
		if op == OCmp {
			c.setFlags(a-b, int32(a) < int32(b))
		} else {
			c.setFlags(v, int32(v) < 0)
			c.Regs[in.r1] = v
		}
	case OShlImm:
		a, err := c.reg(in.r1)
		if err != nil {
			return err
		}
		v := a << (in.imm & 31)
		c.setFlags(v, int32(v) < 0)
		c.Regs[in.r1] = v
	case OShrImm:
		a, err := c.reg(in.r1)
		if err != nil {
			return err
		}
		v := a >> (in.imm & 31)
		c.setFlags(v, false)
		c.Regs[in.r1] = v
	case ONeg:
		a, err := c.reg(in.r1)
		if err != nil {
			return err
		}
		v := -a
		c.setFlags(v, int32(v) < 0)
		c.Regs[in.r1] = v
	case ONot:
		a, err := c.reg(in.r1)
		if err != nil {
			return err
		}
		c.Regs[in.r1] = ^a
	case OJmp:
		next = in.target
	case OJe, OJne, OJl, OJge, OJg, OJle:
		if c.cond(in.op) {
			next = in.target
		}
	case OCall:
		if err := c.push(next); err != nil {
			return c.fault(err.Error())
		}
		next = in.target
	case ORet:
		v, err := c.pop()
		if err != nil {
			return c.fault(err.Error())
		}
		next = v
	case OJmpInd:
		v, err := c.ReadWord(in.imm)
		if err != nil {
			return c.fault(err.Error())
		}
		next = v
	case OJmpReg:
		v, err := c.reg(in.r1)
		if err != nil {
			return err
		}
		next = v
	case OIn:
		var v int64
		if c.inPos < len(c.input) {
			v = c.input[c.inPos]
			c.inPos++
		}
		if err := c.setReg(in.r1, uint32(v)); err != nil {
			return err
		}
	case OOut:
		v, err := c.reg(in.r1)
		if err != nil {
			return err
		}
		c.Output = append(c.Output, int64(int32(v)))
	default:
		return c.fault(fmt.Sprintf("unimplemented opcode %v", in.op))
	}
	c.EIP = next
	return nil
}

func (c *CPU) cond(op Op) bool {
	zf := c.Flags&FlagZF != 0
	lt := c.Flags&FlagLT != 0
	switch op {
	case OJe:
		return zf
	case OJne:
		return !zf
	case OJl:
		return lt
	case OJge:
		return !lt
	case OJg:
		return !lt && !zf
	case OJle:
		return lt || zf
	}
	return false
}

// RunResult summarizes a completed native execution.
type RunResult struct {
	Output []int64
	Steps  int64
}

// Run executes until hlt or the step limit (0 = 50M default).
func (c *CPU) Run(stepLimit int64) (*RunResult, error) {
	if stepLimit == 0 {
		stepLimit = 50_000_000
	}
	for !c.halted {
		if c.Steps >= stepLimit {
			return nil, &Fault{Addr: c.EIP, Msg: ErrStepLimit.Error()}
		}
		if err := c.Step(); err != nil {
			return nil, err
		}
	}
	return &RunResult{Output: c.Output, Steps: c.Steps}, nil
}

// Execute assembles and runs a unit on the given input; a convenience for
// tests and the experiment harness.
func Execute(u *Unit, input []int64, stepLimit int64) (*RunResult, error) {
	img, err := Assemble(u)
	if err != nil {
		return nil, err
	}
	return NewCPU(img, input).Run(stepLimit)
}

// SameOutput reports observational equivalence of two runs.
func SameOutput(a, b *RunResult) bool {
	if a == nil || b == nil {
		return false
	}
	if len(a.Output) != len(b.Output) {
		return false
	}
	for i := range a.Output {
		if a.Output[i] != b.Output[i] {
			return false
		}
	}
	return true
}
