package isa

import (
	"errors"
	"fmt"
)

// RefCPU is the reference stepper the predecoded CPU is pinned against:
// it decodes at every step and keeps stack/heap memory in a byte map,
// exactly as the simulator did before predecoding and paged memory.
type RefCPU struct {
	Regs  [numRegs]uint32
	EIP   uint32
	Flags uint32

	img    *Image
	mem    map[uint32]byte // sparse stack/heap memory outside text+data
	data   []byte          // mutable copy of the data section
	input  []int64
	inPos  int
	Output []int64
	Steps  int64
	halted bool

	// Profile, when non-nil, counts executions per instruction address.
	Profile map[uint32]int64
}

// NewRefCPU loads the image and prepares an execution with the given input
// sequence.
func NewRefCPU(img *Image, input []int64) *RefCPU {
	cpu := &RefCPU{
		img:   img,
		mem:   make(map[uint32]byte),
		data:  append([]byte(nil), img.Data...),
		input: input,
		EIP:   img.Entry,
	}
	cpu.Regs[ESP] = StackTop
	return cpu
}

// Halted reports whether the CPU has executed hlt.
func (c *RefCPU) Halted() bool { return c.halted }

func (c *RefCPU) fault(msg string) error { return &Fault{Addr: c.EIP, Msg: msg} }

// ReadMem reads one byte of memory (text, data, or stack/heap).
func (c *RefCPU) ReadMem(addr uint32) (byte, error) {
	switch {
	case addr >= c.img.TextBase && addr < c.img.TextBase+uint32(len(c.img.Text)):
		return c.img.Text[addr-c.img.TextBase], nil
	case addr >= c.img.DataBase && addr < c.img.DataBase+uint32(len(c.data)):
		return c.data[addr-c.img.DataBase], nil
	case addr >= c.img.DataBase+uint32(len(c.data)) && addr < StackTop:
		return c.mem[addr], nil
	}
	return 0, fmt.Errorf("read of unmapped address %#x", addr)
}

// WriteMem writes one byte; the text section is read-only.
func (c *RefCPU) WriteMem(addr uint32, v byte) error {
	switch {
	case addr >= c.img.TextBase && addr < c.img.TextBase+uint32(len(c.img.Text)):
		return fmt.Errorf("write to read-only text at %#x", addr)
	case addr >= c.img.DataBase && addr < c.img.DataBase+uint32(len(c.data)):
		c.data[addr-c.img.DataBase] = v
		return nil
	case addr >= c.img.DataBase+uint32(len(c.data)) && addr < StackTop:
		c.mem[addr] = v
		return nil
	}
	return fmt.Errorf("write to unmapped address %#x", addr)
}

// ReadWord reads a 32-bit little-endian word.
func (c *RefCPU) ReadWord(addr uint32) (uint32, error) {
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

// WriteWord writes a 32-bit little-endian word.
func (c *RefCPU) WriteWord(addr uint32, v uint32) error {
	for i := uint32(0); i < 4; i++ {
		if err := c.WriteMem(addr+i, byte(v>>(8*i))); err != nil {
			return err
		}
	}
	return nil
}

func (c *RefCPU) push(v uint32) error {
	c.Regs[ESP] -= 4
	return c.WriteWord(c.Regs[ESP], v)
}

func (c *RefCPU) pop() (uint32, error) {
	v, err := c.ReadWord(c.Regs[ESP])
	if err != nil {
		return 0, err
	}
	c.Regs[ESP] += 4
	return v, nil
}

func (c *RefCPU) setFlags(result uint32, lt bool) {
	c.Flags = 0
	if result == 0 {
		c.Flags |= FlagZF
	}
	if lt {
		c.Flags |= FlagLT
	}
}

// Step executes a single instruction.
func (c *RefCPU) Step() error {
	if c.halted {
		return errors.New("isa: step after halt")
	}
	d, err := DecodeAt(c.img.Text, c.img.TextBase, c.EIP)
	if err != nil {
		return c.fault(err.Error())
	}
	if c.Profile != nil {
		c.Profile[c.EIP]++
	}
	c.Steps++
	in := d.Ins
	next := c.EIP + d.Len
	reg := func(r byte) (uint32, error) {
		if r >= numRegs {
			return 0, c.fault(fmt.Sprintf("invalid register %d", r))
		}
		return c.Regs[r], nil
	}
	setReg := func(r byte, v uint32) error {
		if r >= numRegs {
			return c.fault(fmt.Sprintf("invalid register %d", r))
		}
		c.Regs[r] = v
		return nil
	}

	switch in.Op {
	case ONop:
	case OHlt:
		c.halted = true
		return nil
	case OMovImm:
		if err := setReg(in.R1, uint32(in.Imm)); err != nil {
			return err
		}
	case OMovReg:
		v, err := reg(in.R2)
		if err != nil {
			return err
		}
		if err := setReg(in.R1, v); err != nil {
			return err
		}
	case OLoad:
		base, err := reg(in.R2)
		if err != nil {
			return err
		}
		v, err := c.ReadWord(base + uint32(in.Imm))
		if err != nil {
			return c.fault(err.Error())
		}
		if err := setReg(in.R1, v); err != nil {
			return err
		}
	case OStore:
		base, err := reg(in.R1)
		if err != nil {
			return err
		}
		v, err := reg(in.R2)
		if err != nil {
			return err
		}
		if err := c.WriteWord(base+uint32(in.Imm), v); err != nil {
			return c.fault(err.Error())
		}
	case OLoadAbs:
		v, err := c.ReadWord(uint32(in.Imm))
		if err != nil {
			return c.fault(err.Error())
		}
		if err := setReg(in.R1, v); err != nil {
			return err
		}
	case OStoreAbs:
		v, err := reg(in.R1)
		if err != nil {
			return err
		}
		if err := c.WriteWord(uint32(in.Imm), v); err != nil {
			return c.fault(err.Error())
		}
	case OLoadIdx:
		idx, err := reg(in.R2)
		if err != nil {
			return err
		}
		v, err := c.ReadWord(uint32(in.Imm) + idx*uint32(in.Scale))
		if err != nil {
			return c.fault(err.Error())
		}
		if err := setReg(in.R1, v); err != nil {
			return err
		}
	case OStoreIdx:
		idx, err := reg(in.R2)
		if err != nil {
			return err
		}
		v, err := reg(in.R1)
		if err != nil {
			return err
		}
		if err := c.WriteWord(uint32(in.Imm)+idx*uint32(in.Scale), v); err != nil {
			return c.fault(err.Error())
		}
	case OPush:
		v, err := reg(in.R1)
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
		if err := setReg(in.R1, v); err != nil {
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
	case OAdd, OSub, OAnd, OOr, OXor, OMul, OUDiv, OUMod, OCmp:
		a, err := reg(in.R1)
		if err != nil {
			return err
		}
		b, err := reg(in.R2)
		if err != nil {
			return err
		}
		v, write, err := c.alu(in.Op, a, b)
		if err != nil {
			return err
		}
		if write {
			if err := setReg(in.R1, v); err != nil {
				return err
			}
		}
	case OAddImm, OSubImm, OAndImm, OOrImm, OXorImm, OMulImm, OCmpImm:
		a, err := reg(in.R1)
		if err != nil {
			return err
		}
		var aluOp Op
		switch in.Op {
		case OAddImm:
			aluOp = OAdd
		case OSubImm:
			aluOp = OSub
		case OAndImm:
			aluOp = OAnd
		case OOrImm:
			aluOp = OOr
		case OXorImm:
			aluOp = OXor
		case OMulImm:
			aluOp = OMul
		case OCmpImm:
			aluOp = OCmp
		}
		v, write, err := c.alu(aluOp, a, uint32(in.Imm))
		if err != nil {
			return err
		}
		if write {
			if err := setReg(in.R1, v); err != nil {
				return err
			}
		}
	case OShlImm:
		a, err := reg(in.R1)
		if err != nil {
			return err
		}
		v := a << (uint(in.Imm) & 31)
		c.setFlags(v, int32(v) < 0)
		if err := setReg(in.R1, v); err != nil {
			return err
		}
	case OShrImm:
		a, err := reg(in.R1)
		if err != nil {
			return err
		}
		v := a >> (uint(in.Imm) & 31)
		c.setFlags(v, false)
		if err := setReg(in.R1, v); err != nil {
			return err
		}
	case ONeg:
		a, err := reg(in.R1)
		if err != nil {
			return err
		}
		v := -a
		c.setFlags(v, int32(v) < 0)
		if err := setReg(in.R1, v); err != nil {
			return err
		}
	case ONot:
		a, err := reg(in.R1)
		if err != nil {
			return err
		}
		if err := setReg(in.R1, ^a); err != nil {
			return err
		}
	case OJmp:
		next = d.AbsTarget
	case OJe, OJne, OJl, OJge, OJg, OJle:
		if c.cond(in.Op) {
			next = d.AbsTarget
		}
	case OCall:
		if err := c.push(next); err != nil {
			return c.fault(err.Error())
		}
		next = d.AbsTarget
	case ORet:
		v, err := c.pop()
		if err != nil {
			return c.fault(err.Error())
		}
		next = v
	case OJmpInd:
		v, err := c.ReadWord(uint32(in.Imm))
		if err != nil {
			return c.fault(err.Error())
		}
		next = v
	case OJmpReg:
		v, err := reg(in.R1)
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
		if err := setReg(in.R1, uint32(v)); err != nil {
			return err
		}
	case OOut:
		v, err := reg(in.R1)
		if err != nil {
			return err
		}
		c.Output = append(c.Output, int64(int32(v)))
	default:
		return c.fault(fmt.Sprintf("unimplemented opcode %v", in.Op))
	}
	c.EIP = next
	return nil
}

func (c *RefCPU) alu(op Op, a, b uint32) (v uint32, write bool, err error) {
	write = true
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
	case OUDiv:
		if b == 0 {
			return 0, false, c.fault("division by zero")
		}
		v = a / b
	case OUMod:
		if b == 0 {
			return 0, false, c.fault("division by zero")
		}
		v = a % b
	case OCmp:
		v = a - b
		write = false
		c.setFlags(v, int32(a) < int32(b))
		return v, write, nil
	}
	c.setFlags(v, int32(v) < 0)
	return v, write, nil
}

func (c *RefCPU) cond(op Op) bool {
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

// Run executes until hlt or the step limit (0 = 50M default).
func (c *RefCPU) Run(stepLimit int64) (*RunResult, error) {
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

// RefCollectProfile is CollectProfile over the reference stepper.
func RefCollectProfile(u *Unit, input []int64, stepLimit int64) (map[int]int64, error) {
	img, err := Assemble(u)
	if err != nil {
		return nil, err
	}
	cpu := NewRefCPU(img, input)
	cpu.Profile = make(map[uint32]int64)
	if _, err := cpu.Run(stepLimit); err != nil {
		return nil, err
	}
	addrToIdx := make(map[uint32]int, len(img.InstrAddrs))
	for i, a := range img.InstrAddrs {
		addrToIdx[a] = i
	}
	counts := make(map[int]int64, len(cpu.Profile))
	for addr, n := range cpu.Profile {
		if i, ok := addrToIdx[addr]; ok {
			counts[i] = n
		}
	}
	return counts, nil
}
