package cpu

import (
	"math"

	"teva/internal/fpu"
	"teva/internal/isa"
)

// This file keeps the simulator's original fetch/decode/dispatch
// executor as the oracle the predecoded executor in cpu.go is tested
// against. It is unchanged apart from decoding each word as it is
// fetched, printing no trace, passing intDivide a kind, and the ref
// prefix on its names. It shares the helpers both executors use:
// readInt, readFP, writeInt, writeFPRaw, memAccess, intDivide,
// execSyscall and goldenWithFlags.

// refRunTo is RunTo on the reference executor.
func (c *CPU) refRunTo(maxCycles uint64, stop int64) (res Result, paused bool) {
	running := true
	for running && c.cycle < maxCycles && c.res.Instret < stop {
		running = c.refStep()
	}
	c.res.Cycles = c.cycle
	return c.res, running && c.cycle < maxCycles
}

// refStep executes one instruction; returns false when the run ends.
func (c *CPU) refStep() bool {
	idx := (c.pc - isa.TextBase) / 4
	if c.pc < isa.TextBase || c.pc%4 != 0 || int(idx) >= len(c.prog.Text) {
		c.crash("pc %#x outside text", c.pc)
		return false
	}
	in, err := isa.Decode(c.prog.Text[idx])
	if err != nil {
		c.crash("illegal instruction %#08x at pc %#x", in.Raw, c.pc)
		return false
	}
	// Instruction fetch: a miss in the (direct-mapped) instruction cache
	// stalls the front end for the refill.
	line := c.pc >> cacheLineLog
	slot := line % icacheLines
	if c.itags[slot] != line {
		c.itags[slot] = line
		c.res.ICacheMisses++
		c.cycle += uint64(c.lat.CacheMiss - c.lat.CacheHit)
	}
	c.cycle++ // fetch/issue slot
	c.res.Instret++
	nextPC := c.pc + 4

	switch in.Op {
	case isa.OpInt:
		c.refExecInt(in)
	case isa.OpIntImm:
		c.refExecIntImm(in)
	case isa.OpLui:
		c.writeInt(in.Rd, uint32(in.Imm), c.cycle+uint64(c.lat.IntALU))
	case isa.OpAuipc:
		c.writeInt(in.Rd, c.pc+uint32(in.Imm), c.cycle+uint64(c.lat.IntALU))
	case isa.OpLoad:
		if !c.refExecLoad(in) {
			return false
		}
	case isa.OpStore:
		if !c.refExecStore(in) {
			return false
		}
	case isa.OpFLoad:
		if !c.refExecFLoad(in) {
			return false
		}
	case isa.OpFStore:
		if !c.refExecFStore(in) {
			return false
		}
	case isa.OpBranch:
		c.res.Branches++
		if c.refEvalBranch(in) {
			c.res.TakenBranches++
			c.cycle += uint64(c.lat.BranchPenalty)
			nextPC = c.pc + uint32(in.Imm)
		}
	case isa.OpJal:
		c.writeInt(in.Rd, c.pc+4, c.cycle+1)
		c.cycle += uint64(c.lat.BranchPenalty)
		nextPC = c.pc + uint32(in.Imm)
	case isa.OpJalr:
		target := (c.readInt(in.Rs1) + uint32(in.Imm)) &^ 1
		c.writeInt(in.Rd, c.pc+4, c.cycle+1)
		c.cycle += uint64(c.lat.BranchPenalty)
		nextPC = target
	case isa.OpSys:
		if !c.execSyscall() {
			return false
		}
	case isa.OpFP:
		if !c.refExecFP(in) {
			return false
		}
	default:
		c.crash("unimplemented opcode %#x", uint8(in.Op))
		return false
	}
	if c.res.Status == Crashed || c.res.Status == Halted {
		return false
	}
	c.pc = nextPC
	return true
}

// refDivFunct3 maps the mul group's divide funct3 values to the
// executor's kinds, for the shared intDivide.
var refDivFunct3 = map[uint8]kind{
	isa.F3Div: kDiv, isa.F3Divu: kDivu, isa.F3Rem: kRem, isa.F3Remu: kRemu,
}

func (c *CPU) refExecInt(in isa.Inst) {
	a := c.readInt(in.Rs1)
	b := c.readInt(in.Rs2)
	lat := uint64(c.lat.IntALU)
	var v uint32
	if in.Funct7 == isa.F7MulD {
		switch in.Funct3 {
		case isa.F3Mul:
			v = uint32(int32(a) * int32(b))
			lat = uint64(c.lat.IntMul)
		case isa.F3Mulh:
			v = uint32(uint64(int64(int32(a))*int64(int32(b))) >> 32)
			lat = uint64(c.lat.IntMul)
		case isa.F3Div, isa.F3Divu, isa.F3Rem, isa.F3Remu:
			v = c.intDivide(refDivFunct3[in.Funct3], a, b)
			if t := c.divFree; t > c.cycle {
				c.cycle = t // structural hazard: non-pipelined divider
			}
			lat = uint64(c.lat.IntDiv)
			c.divFree = c.cycle + lat
		}
	} else {
		switch in.Funct3 {
		case isa.F3AddSub:
			if in.Funct7 == isa.F7Alt {
				v = a - b
			} else {
				v = a + b
			}
		case isa.F3Sll:
			v = a << (b & 31)
		case isa.F3Slt:
			if int32(a) < int32(b) {
				v = 1
			}
		case isa.F3Sltu:
			if a < b {
				v = 1
			}
		case isa.F3Xor:
			v = a ^ b
		case isa.F3SrlSra:
			if in.Funct7 == isa.F7Alt {
				v = uint32(int32(a) >> (b & 31))
			} else {
				v = a >> (b & 31)
			}
		case isa.F3Or:
			v = a | b
		case isa.F3And:
			v = a & b
		}
	}
	c.writeInt(in.Rd, v, c.cycle+lat)
}

func (c *CPU) refExecIntImm(in isa.Inst) {
	a := c.readInt(in.Rs1)
	imm := uint32(in.Imm)
	var v uint32
	switch in.Funct3 {
	case isa.F3AddSub:
		v = a + imm
	case isa.F3Sll:
		v = a << (imm & 31)
	case isa.F3Slt:
		if int32(a) < in.Imm {
			v = 1
		}
	case isa.F3Sltu:
		if a < imm {
			v = 1
		}
	case isa.F3Xor:
		v = a ^ imm
	case isa.F3SrlSra:
		if in.Imm>>5&0x7f == int32(isa.F7Alt) {
			v = uint32(int32(a) >> (imm & 31))
		} else {
			v = a >> (imm & 31)
		}
	case isa.F3Or:
		v = a | imm
	case isa.F3And:
		v = a & imm
	}
	c.writeInt(in.Rd, v, c.cycle+uint64(c.lat.IntALU))
}

func (c *CPU) refEvalBranch(in isa.Inst) bool {
	a := c.readInt(in.Rs1)
	b := c.readInt(in.Rs2)
	switch in.Funct3 {
	case isa.F3Beq:
		return a == b
	case isa.F3Bne:
		return a != b
	case isa.F3Blt:
		return int32(a) < int32(b)
	case isa.F3Bge:
		return int32(a) >= int32(b)
	case isa.F3Bltu:
		return a < b
	case isa.F3Bgeu:
		return a >= b
	}
	return false
}

func (c *CPU) refExecLoad(in isa.Inst) bool {
	addr := c.readInt(in.Rs1) + uint32(in.Imm)
	var size uint32 = 4
	if in.Funct3 == isa.F3Byte || in.Funct3 == isa.F3ByteU {
		size = 1
	}
	lat, ok := c.memAccess(addr, size)
	if !ok {
		return false
	}
	var v uint32
	switch in.Funct3 {
	case isa.F3Word:
		v = uint32(c.mem[addr]) | uint32(c.mem[addr+1])<<8 |
			uint32(c.mem[addr+2])<<16 | uint32(c.mem[addr+3])<<24
	case isa.F3Byte:
		v = uint32(int32(int8(c.mem[addr])))
	case isa.F3ByteU:
		v = uint32(c.mem[addr])
	default:
		c.crash("illegal load funct3 %d", in.Funct3)
		return false
	}
	c.writeInt(in.Rd, v, c.cycle+lat)
	return true
}

func (c *CPU) refExecStore(in isa.Inst) bool {
	addr := c.readInt(in.Rs1) + uint32(in.Imm)
	v := c.readInt(in.Rs2)
	var size uint32 = 4
	if in.Funct3 == isa.F3Byte {
		size = 1
	}
	if _, ok := c.memAccess(addr, size); !ok {
		return false
	}
	c.markDirty(addr)
	switch in.Funct3 {
	case isa.F3Word:
		c.mem[addr] = byte(v)
		c.mem[addr+1] = byte(v >> 8)
		c.mem[addr+2] = byte(v >> 16)
		c.mem[addr+3] = byte(v >> 24)
	case isa.F3Byte:
		c.mem[addr] = byte(v)
	default:
		c.crash("illegal store funct3 %d", in.Funct3)
		return false
	}
	return true
}

func (c *CPU) refExecFLoad(in isa.Inst) bool {
	addr := c.readInt(in.Rs1) + uint32(in.Imm)
	size := uint32(8)
	if in.Funct3 == isa.F3FWord {
		size = 4
	}
	lat, ok := c.memAccess(addr, size)
	if !ok {
		return false
	}
	var v uint64
	for i := uint32(0); i < size; i++ {
		v |= uint64(c.mem[addr+i]) << (8 * i)
	}
	c.writeFPRaw(in.Rd, v, c.cycle+lat)
	return true
}

func (c *CPU) refExecFStore(in isa.Inst) bool {
	addr := c.readInt(in.Rs1) + uint32(in.Imm)
	v := c.readFP(in.Rs2)
	size := uint32(8)
	if in.Funct3 == isa.F3FWord {
		size = 4
	}
	if _, ok := c.memAccess(addr, size); !ok {
		return false
	}
	c.markDirty(addr)
	for i := uint32(0); i < size; i++ {
		c.mem[addr+i] = byte(v >> (8 * i))
	}
	return true
}

func (c *CPU) refExecFP(in isa.Inst) bool {
	fn := isa.FPFunc(in.Funct7)
	if fn.IsFPUDatapath() {
		return c.refExecFPUDatapath(in, fpOpFor[fn])
	}
	switch fn {
	case isa.FPMv:
		c.writeFPRaw(in.Rd, c.readFP(in.Rs1), c.cycle+1)
	case isa.FPNegD:
		c.writeFPRaw(in.Rd, c.readFP(in.Rs1)^1<<63, c.cycle+1)
	case isa.FPAbsD:
		c.writeFPRaw(in.Rd, c.readFP(in.Rs1)&^(1<<63), c.cycle+1)
	case isa.FPEqD, isa.FPLtD, isa.FPLeD:
		a := math.Float64frombits(c.readFP(in.Rs1))
		b := math.Float64frombits(c.readFP(in.Rs2))
		var v uint32
		switch {
		//teva:allow floateq -- FEQ.D is defined as exact IEEE-754 equality
		case fn == isa.FPEqD && a == b, fn == isa.FPLtD && a < b, fn == isa.FPLeD && a <= b:
			v = 1
		}
		c.writeInt(in.Rd, v, c.cycle+1)
	case isa.FPMvXD:
		c.writeInt(in.Rd, uint32(c.readFP(in.Rs1)), c.cycle+1)
	case isa.FPMvDX:
		c.writeFPRaw(in.Rd, uint64(c.readInt(in.Rs1)), c.cycle+1)
	case isa.FPCvtSD:
		// Narrowing conversion via the softfp reference (not a gate-level
		// pipeline in the reference design; excluded from injection).
		d := math.Float64frombits(c.readFP(in.Rs1))
		c.writeFPRaw(in.Rd, uint64(math.Float32bits(float32(d))), c.cycle+3)
	case isa.FPCvtDS:
		s := math.Float32frombits(uint32(c.readFP(in.Rs1)))
		c.writeFPRaw(in.Rd, math.Float64bits(float64(s)), c.cycle+3)
	default:
		c.crash("illegal fp funct7 %d", in.Funct7)
		return false
	}
	return true
}

// refExecFPUDatapath executes one of the 12 modelled FPU instructions
// (bit-identical to the gate-level golden model; see goldenWithFlags) and
// offers the writeback to the injector.
func (c *CPU) refExecFPUDatapath(in isa.Inst, op fpu.Op) bool {
	var a, b uint64
	if op == fpu.DI2F || op == fpu.SI2F {
		a = uint64(c.readInt(in.Rs1))
	} else {
		a = c.readFP(in.Rs1)
		if op.NumOperands() == 2 {
			b = c.readFP(in.Rs2)
		}
	}
	if !op.Double() && op != fpu.SI2F {
		a &= 0xffffffff
		b &= 0xffffffff
	}
	result, invalid := goldenWithFlags(op, a, b)
	if c.cfg.TrapFPInvalid && invalid {
		c.crash("fp invalid-operation exception (%v at pc %#x)", op, c.pc)
		return false
	}
	lat := uint64(c.lat.FP[op])
	if op == fpu.DDiv || op == fpu.SDiv {
		if t := c.fpDivFree; t > c.cycle {
			c.cycle = t
		}
		c.fpDivFree = c.cycle + lat
	}
	ready := c.cycle + lat
	c.res.FPOps[op]++
	if c.cfg.Injector != nil {
		mask := c.cfg.Injector.OnWriteback(Event{
			Seq: c.res.Instret, Cycle: ready,
			FPUDatapath: true, FPOp: op, A: a, B: b, Result: result,
			Width: op.ResultWidth(),
		})
		if mask != 0 {
			result ^= mask & widthMask(op.ResultWidth())
			c.res.Injections++
		}
	}
	if op == fpu.DF2I || op == fpu.SF2I {
		c.writeInt(in.Rd, uint32(result), ready)
	} else {
		c.writeFPRaw(in.Rd, result, ready)
	}
	return true
}
