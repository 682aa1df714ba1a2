// Package cpu is the microarchitecture-level simulator of the application
// evaluation phase (Section III-B): it executes MRV binaries cycle by
// cycle on a single-issue pipelined core model with scoreboarded
// multi-cycle functional units (whose floating-point latencies mirror the
// gate-level FPU pipelines), a direct-mapped data cache, static
// not-taken branch handling with a taken-branch redirect penalty, and a
// register writeback hook at which timing errors are injected.
//
// This is the gem5 substitute of the reproduction: a performance model,
// not an RTL model — architectural state is computed functionally while
// cycle counts come from the hazard/latency model. The 12 FPU-datapath
// instructions produce exactly the gate-level FPU's flush-to-zero,
// round-to-nearest-even results, so circuit-level bitmasks apply 1-to-1
// to the values the software layer observes. Each is computed with one
// host IEEE-754 operation where that result provably equals softfp's
// (normal operands and a result clear of the FTZ boundary; see nativeFP)
// and with softfp otherwise. Injected corruption propagates
// architecturally: corrupted indexes cause memory faults (Crash),
// corrupted loop bounds cause livelock (Timeout), corrupted data causes
// silent output corruption (SDC), and corrupted-but-dead values are
// masked — the four outcome classes of the paper.
package cpu

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"teva/internal/fpu"
	"teva/internal/isa"
	"teva/internal/softfp"
)

// Status is the final state of a simulation run.
type Status uint8

// Run outcomes. The campaign layer maps them (plus output comparison)
// onto the paper's Masked/SDC/Crash/Timeout classes.
const (
	// Halted: the program exited via the exit syscall.
	Halted Status = iota
	// Crashed: an unrecoverable fault (memory fault, illegal
	// instruction, FP invalid-operation trap, PC out of text).
	Crashed
	// TimedOut: the cycle budget was exhausted.
	TimedOut
)

func (s Status) String() string {
	switch s {
	case Halted:
		return "halted"
	case Crashed:
		return "crashed"
	case TimedOut:
		return "timed-out"
	}
	return "unknown"
}

// Event describes one register writeback offered to the injector.
type Event struct {
	// Seq is the dynamic index of the instruction (commit order).
	Seq int64
	// Cycle is the writeback cycle.
	Cycle uint64
	// FPUDatapath reports whether this result was produced by one of the
	// 12 gate-level FPU pipelines.
	FPUDatapath bool
	// FPOp identifies the pipeline when FPUDatapath.
	FPOp fpu.Op
	// A, B are the operand encodings (FPUDatapath only).
	A, B uint64
	// Result is the value about to be written.
	Result uint64
	// Width is the destination register width in bits (32 or 64).
	Width int
}

// Injector decides, per writeback, which bits of the result to corrupt.
// Returning 0 leaves the writeback intact. Implementations include the
// DA/IA/WA error models and the trace capturer (which always returns 0).
type Injector interface {
	OnWriteback(ev Event) uint64
}

// Latencies of the functional units, in cycles.
type Latencies struct {
	IntALU        int
	IntMul        int
	IntDiv        int
	CacheHit      int
	CacheMiss     int
	BranchPenalty int
	FP            [fpu.NumOps]int
}

// DefaultLatencies mirror the gate-level FPU pipeline depths.
func DefaultLatencies() Latencies {
	return Latencies{
		IntALU: 1, IntMul: 3, IntDiv: 16,
		CacheHit: 2, CacheMiss: 22, BranchPenalty: 2,
		FP: [fpu.NumOps]int{
			fpu.DAdd: 6, fpu.DSub: 6, fpu.DMul: 6, fpu.DDiv: 59, fpu.DI2F: 3, fpu.DF2I: 3,
			fpu.SAdd: 6, fpu.SSub: 6, fpu.SMul: 6, fpu.SDiv: 30, fpu.SI2F: 3, fpu.SF2I: 3,
		},
	}
}

// Config parameterizes a simulation.
type Config struct {
	// MemSize is the flat memory size in bytes (default isa.DefaultMemSize).
	MemSize int
	// Latencies override the default FU latencies when non-nil.
	Latencies *Latencies
	// Injector receives every register writeback (nil: no injection).
	Injector Injector
	// TrapFPInvalid makes invalid FP operations (NaN production from
	// non-NaN inputs, invalid conversions) raise a crash, modelling the
	// FPU exception path. Benchmarks are exception-free when uncorrupted.
	TrapFPInvalid bool
	// MaxOutput caps the console buffer (default 1 MiB).
	MaxOutput int
	// Trace, when non-nil, receives one line per executed instruction
	// (cycle, pc, disassembly) — a debugging aid with a large slowdown.
	Trace io.Writer
}

// Result summarizes a finished run.
type Result struct {
	Status   Status
	ExitCode int32
	// Reason describes a crash.
	Reason string
	// Cycles is the total simulated cycle count.
	Cycles uint64
	// Instret is the number of executed instructions.
	Instret int64
	// FPOps counts executed instructions per FPU pipeline.
	FPOps [fpu.NumOps]int64
	// Injections counts non-zero masks applied.
	Injections int64
	// DCacheMisses and ICacheMisses count cache misses.
	DCacheMisses int64
	ICacheMisses int64
	// Branches and TakenBranches count control-flow statistics.
	Branches, TakenBranches int64
}

// CPU is one simulator instance.
type CPU struct {
	cfg  Config
	lat  Latencies
	prog *isa.Program

	state
	mem    []byte
	output []byte
	code   []uop // lowered text, indexed by (pc-TextBase)/4

	// dirty is a bitmap of the memory pages stored to since New or the
	// last Restore; base/baseK name the checkpoint the rest of memory
	// holds (baseK 0: the reset image). scratch is Matches' page set.
	dirty   []uint64
	scratch []uint64
	base    *Recording
	baseK   int
}

// state is the simulator state outside memory and the console: what a
// checkpoint copies by value and Matches compares.
type state struct {
	pc   uint32
	xreg [32]uint32
	freg [32]uint64

	// Timing state.
	cycle     uint64
	intReady  [32]uint64 // cycle at which the register value is available
	fpReady   [32]uint64
	divFree   uint64 // non-pipelined divider next-free cycle
	fpDivFree uint64

	// Cache models: direct-mapped, 32-byte lines.
	tags  [cacheLines]uint32
	itags [icacheLines]uint32

	res Result
}

const (
	cacheLines   = 512 // 16 KiB, 32-byte lines
	cacheLineLog = 5
	icacheLines  = 256 // 8 KiB instruction cache
)

// New prepares a simulator for the program.
func New(prog *isa.Program, cfg Config) *CPU {
	if cfg.MemSize == 0 {
		cfg.MemSize = isa.DefaultMemSize
	}
	if cfg.MaxOutput == 0 {
		cfg.MaxOutput = 1 << 20
	}
	lat := DefaultLatencies()
	if cfg.Latencies != nil {
		lat = *cfg.Latencies
	}
	c := &CPU{
		cfg:  cfg,
		lat:  lat,
		prog: prog,
		mem:  newMem(cfg.MemSize),
	}
	pages := (cfg.MemSize + pageSize - 1) >> pageLog
	c.dirty = make([]uint64, (pages+63)/64)
	c.scratch = make([]uint64, len(c.dirty))
	c.state = resetState(prog)
	copy(c.mem[isa.DataBase:], prog.Data)
	c.code = make([]uop, len(prog.Text))
	for i, raw := range prog.Text {
		c.code[i] = lower(raw)
	}
	return c
}

// uop is one text word lowered for RunTo: kind names the one case of its
// switch that executes the word, so no field is decoded at run time.
type uop struct {
	kind         kind
	rd, rs1, rs2 uint8
	fpOp         fpu.Op // the pipeline of a kFPU
	imm          int32
}

// kind is a uop's operation: opcode, funct3, funct7 and FP function
// resolved together. Each reserved encoding isa.Decode accepts gets the
// kind that reproduces what the simulator has always done with it.
type kind uint8

const (
	kIllegal kind = iota // a word isa.Decode rejects
	kAdd
	kSub
	kSll
	kSlt
	kSltu
	kXor
	kSrl
	kSra
	kOr
	kAnd
	kMul
	kMulh
	kMulZero // mul-group funct3 2 and 3: write 0 at IntALU latency
	kDiv
	kDivu
	kRem
	kRemu
	kAddi
	kSlli
	kSlti
	kSltiu
	kXori
	kSrli
	kSrai
	kOri
	kAndi
	kLui
	kAuipc
	kLw
	kLb
	kLbu
	kLoadBad // reserved load funct3: a word access, then a crash
	kSw
	kSb
	kStoreBad // reserved store funct3: a word access marking its page, then a crash
	kFlw
	kFld // also every reserved FLoad funct3
	kFsw
	kFsd // also every reserved FStore funct3
	kBeq
	kBne
	kBlt
	kBge
	kBltu
	kBgeu
	kBNever // reserved branch funct3: reads both operands, never taken
	kJal
	kJalr
	kEcall
	kFPU // one of the 12 FPU-datapath ops, in fpOp
	kFmv
	kFneg
	kFabs
	kFeq
	kFlt
	kFle
	kFmvXD
	kFmvDX
	kFcvtSD
	kFcvtDS
	kFPBad // reserved FP function: a crash
)

// Kinds by funct3. In the register ALU group only funct7 0x20 selects
// sub and sra; every other funct7 but the mul group's acts as the base op.
var (
	aluKinds    = [8]kind{kAdd, kSll, kSlt, kSltu, kXor, kSrl, kOr, kAnd}
	mulKinds    = [8]kind{kMul, kMulh, kMulZero, kMulZero, kDiv, kDivu, kRem, kRemu}
	immKinds    = [8]kind{kAddi, kSlli, kSlti, kSltiu, kXori, kSrli, kOri, kAndi}
	loadKinds   = [8]kind{kLb, kLoadBad, kLw, kLoadBad, kLbu, kLoadBad, kLoadBad, kLoadBad}
	storeKinds  = [8]kind{kSb, kStoreBad, kSw, kStoreBad, kStoreBad, kStoreBad, kStoreBad, kStoreBad}
	branchKinds = [8]kind{kBeq, kBne, kBNever, kBNever, kBlt, kBge, kBltu, kBgeu}
	fpKinds     = [isa.FPCvtDS + 1]kind{
		isa.FPMv: kFmv, isa.FPNegD: kFneg, isa.FPAbsD: kFabs,
		isa.FPEqD: kFeq, isa.FPLtD: kFlt, isa.FPLeD: kFle,
		isa.FPMvXD: kFmvXD, isa.FPMvDX: kFmvDX, isa.FPCvtSD: kFcvtSD, isa.FPCvtDS: kFcvtDS,
	}
)

// lower translates one text word into its uop.
func lower(raw uint32) uop {
	in, err := isa.Decode(raw)
	if err != nil {
		return uop{kind: kIllegal}
	}
	u := uop{rd: in.Rd, rs1: in.Rs1, rs2: in.Rs2, imm: in.Imm}
	switch in.Op {
	case isa.OpInt:
		switch {
		case in.Funct7 == isa.F7MulD:
			u.kind = mulKinds[in.Funct3]
		case in.Funct7 == isa.F7Alt && in.Funct3 == isa.F3AddSub:
			u.kind = kSub
		case in.Funct7 == isa.F7Alt && in.Funct3 == isa.F3SrlSra:
			u.kind = kSra
		default:
			u.kind = aluKinds[in.Funct3]
		}
	case isa.OpIntImm:
		u.kind = immKinds[in.Funct3]
		if in.Funct3 == isa.F3SrlSra && in.Imm>>5&0x7f == int32(isa.F7Alt) {
			u.kind = kSrai
		}
	case isa.OpLui:
		u.kind = kLui
	case isa.OpAuipc:
		u.kind = kAuipc
	case isa.OpLoad:
		u.kind = loadKinds[in.Funct3]
	case isa.OpStore:
		u.kind = storeKinds[in.Funct3]
	case isa.OpFLoad:
		u.kind = kFld
		if in.Funct3 == isa.F3FWord {
			u.kind = kFlw
		}
	case isa.OpFStore:
		u.kind = kFsd
		if in.Funct3 == isa.F3FWord {
			u.kind = kFsw
		}
	case isa.OpBranch:
		u.kind = branchKinds[in.Funct3]
	case isa.OpJal:
		u.kind = kJal
	case isa.OpJalr:
		u.kind = kJalr
	case isa.OpSys:
		u.kind = kEcall
	case isa.OpFP:
		switch fn := isa.FPFunc(in.Funct7); {
		case fn.IsFPUDatapath():
			u.kind, u.fpOp = kFPU, fpOpFor[fn]
		case int(fn) < len(fpKinds):
			u.kind = fpKinds[fn]
		default:
			u.kind = kFPBad
		}
	}
	return u
}

// resetState is the state a program starts from: pc at the entry point,
// the stack pointer set, caches empty and the run's status TimedOut until
// it halts or crashes.
func resetState(prog *isa.Program) state {
	s := state{pc: prog.Entry}
	s.xreg[2] = isa.StackTop
	for i := range s.tags {
		s.tags[i] = ^uint32(0)
	}
	for i := range s.itags {
		s.itags[i] = ^uint32(0)
	}
	s.res.Status = TimedOut
	return s
}

// Mem exposes the data memory for output-region classification. Writes
// through it bypass the dirty-page tracking that Reset, Restore, Matches
// and Release rely on.
func (c *CPU) Mem() []byte { return c.mem }

// SetInjector replaces the writeback injector for the rest of the run.
func (c *CPU) SetInjector(inj Injector) { c.cfg.Injector = inj }

// Output returns the console output produced so far.
func (c *CPU) Output() []byte { return c.output }

// crash terminates the run.
func (c *CPU) crash(format string, args ...any) {
	c.res.Status = Crashed
	c.res.Reason = fmt.Sprintf(format, args...)
}

// Run simulates until halt, crash, or the cycle budget is exhausted.
func (c *CPU) Run(maxCycles uint64) Result {
	res, _ := c.RunTo(maxCycles, math.MaxInt64)
	return res
}

// RunTo is Run that also pauses once stop instructions have retired. It
// reports paused when the run stopped there still running; a later Run or
// RunTo continues it exactly as if it had never paused.
//
// It is the simulator's one executor: each iteration fetches the uop New
// lowered for pc and dispatches on its kind. Only an instruction that can
// crash or halt checks for the end of the run.
func (c *CPU) RunTo(maxCycles uint64, stop int64) (res Result, paused bool) {
	c.mustHoldMem()
	code := c.code
	alu := uint64(c.lat.IntALU)
	for c.cycle < maxCycles && c.res.Instret < stop {
		idx := (c.pc - isa.TextBase) / 4
		if c.pc < isa.TextBase || c.pc%4 != 0 || int(idx) >= len(code) {
			c.crash("pc %#x outside text", c.pc)
			return c.end()
		}
		u := &code[idx]
		if u.kind == kIllegal {
			c.crash("illegal instruction %#08x at pc %#x", c.prog.Text[idx], c.pc)
			return c.end()
		}
		if c.cfg.Trace != nil {
			fmt.Fprintf(c.cfg.Trace, "%10d %08x  %s\n", c.cycle, c.pc, isa.Disassemble(c.inst(idx)))
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
		next := c.pc + 4

		// Operands are read into locals before any c.cycle+lat: a read
		// stalls c.cycle to the operand's ready time.
		switch u.kind {
		case kAdd:
			a, b := c.readInt(u.rs1), c.readInt(u.rs2)
			c.writeInt(u.rd, a+b, c.cycle+alu)
		case kSub:
			a, b := c.readInt(u.rs1), c.readInt(u.rs2)
			c.writeInt(u.rd, a-b, c.cycle+alu)
		case kSll:
			a, b := c.readInt(u.rs1), c.readInt(u.rs2)
			c.writeInt(u.rd, a<<(b&31), c.cycle+alu)
		case kSlt:
			a, b := c.readInt(u.rs1), c.readInt(u.rs2)
			c.writeInt(u.rd, b2u(int32(a) < int32(b)), c.cycle+alu)
		case kSltu:
			a, b := c.readInt(u.rs1), c.readInt(u.rs2)
			c.writeInt(u.rd, b2u(a < b), c.cycle+alu)
		case kXor:
			a, b := c.readInt(u.rs1), c.readInt(u.rs2)
			c.writeInt(u.rd, a^b, c.cycle+alu)
		case kSrl:
			a, b := c.readInt(u.rs1), c.readInt(u.rs2)
			c.writeInt(u.rd, a>>(b&31), c.cycle+alu)
		case kSra:
			a, b := c.readInt(u.rs1), c.readInt(u.rs2)
			c.writeInt(u.rd, uint32(int32(a)>>(b&31)), c.cycle+alu)
		case kOr:
			a, b := c.readInt(u.rs1), c.readInt(u.rs2)
			c.writeInt(u.rd, a|b, c.cycle+alu)
		case kAnd:
			a, b := c.readInt(u.rs1), c.readInt(u.rs2)
			c.writeInt(u.rd, a&b, c.cycle+alu)
		case kMul:
			a, b := c.readInt(u.rs1), c.readInt(u.rs2)
			c.writeInt(u.rd, uint32(int32(a)*int32(b)), c.cycle+uint64(c.lat.IntMul))
		case kMulh:
			a, b := c.readInt(u.rs1), c.readInt(u.rs2)
			c.writeInt(u.rd, uint32(uint64(int64(int32(a))*int64(int32(b)))>>32), c.cycle+uint64(c.lat.IntMul))
		case kMulZero:
			c.readInt(u.rs1)
			c.readInt(u.rs2)
			c.writeInt(u.rd, 0, c.cycle+alu)
		case kDiv, kDivu, kRem, kRemu:
			a, b := c.readInt(u.rs1), c.readInt(u.rs2)
			v := c.intDivide(u.kind, a, b)
			if t := c.divFree; t > c.cycle {
				c.cycle = t // structural hazard: non-pipelined divider
			}
			lat := uint64(c.lat.IntDiv)
			c.divFree = c.cycle + lat
			c.writeInt(u.rd, v, c.cycle+lat)

		case kAddi:
			a := c.readInt(u.rs1)
			c.writeInt(u.rd, a+uint32(u.imm), c.cycle+alu)
		case kSlli:
			a := c.readInt(u.rs1)
			c.writeInt(u.rd, a<<(u.imm&31), c.cycle+alu)
		case kSlti:
			a := c.readInt(u.rs1)
			c.writeInt(u.rd, b2u(int32(a) < u.imm), c.cycle+alu)
		case kSltiu:
			a := c.readInt(u.rs1)
			c.writeInt(u.rd, b2u(a < uint32(u.imm)), c.cycle+alu)
		case kXori:
			a := c.readInt(u.rs1)
			c.writeInt(u.rd, a^uint32(u.imm), c.cycle+alu)
		case kSrli:
			a := c.readInt(u.rs1)
			c.writeInt(u.rd, a>>(u.imm&31), c.cycle+alu)
		case kSrai:
			a := c.readInt(u.rs1)
			c.writeInt(u.rd, uint32(int32(a)>>(u.imm&31)), c.cycle+alu)
		case kOri:
			a := c.readInt(u.rs1)
			c.writeInt(u.rd, a|uint32(u.imm), c.cycle+alu)
		case kAndi:
			a := c.readInt(u.rs1)
			c.writeInt(u.rd, a&uint32(u.imm), c.cycle+alu)
		case kLui:
			c.writeInt(u.rd, uint32(u.imm), c.cycle+alu)
		case kAuipc:
			c.writeInt(u.rd, c.pc+uint32(u.imm), c.cycle+alu)

		case kLw:
			addr := c.readInt(u.rs1) + uint32(u.imm)
			lat, ok := c.memAccess(addr, 4)
			if !ok {
				return c.end()
			}
			c.writeInt(u.rd, binary.LittleEndian.Uint32(c.mem[addr:]), c.cycle+lat)
		case kLb:
			addr := c.readInt(u.rs1) + uint32(u.imm)
			lat, ok := c.memAccess(addr, 1)
			if !ok {
				return c.end()
			}
			c.writeInt(u.rd, uint32(int32(int8(c.mem[addr]))), c.cycle+lat)
		case kLbu:
			addr := c.readInt(u.rs1) + uint32(u.imm)
			lat, ok := c.memAccess(addr, 1)
			if !ok {
				return c.end()
			}
			c.writeInt(u.rd, uint32(c.mem[addr]), c.cycle+lat)
		case kLoadBad:
			// A reserved width is checked as a word access first.
			if _, ok := c.memAccess(c.readInt(u.rs1)+uint32(u.imm), 4); ok {
				c.crash("illegal load funct3 %d", c.inst(idx).Funct3)
			}
			return c.end()
		case kSw:
			addr := c.readInt(u.rs1) + uint32(u.imm)
			v := c.readInt(u.rs2)
			if _, ok := c.memAccess(addr, 4); !ok {
				return c.end()
			}
			c.markDirty(addr)
			binary.LittleEndian.PutUint32(c.mem[addr:], v)
		case kSb:
			addr := c.readInt(u.rs1) + uint32(u.imm)
			v := c.readInt(u.rs2)
			if _, ok := c.memAccess(addr, 1); !ok {
				return c.end()
			}
			c.markDirty(addr)
			c.mem[addr] = byte(v)
		case kStoreBad:
			// A reserved width is checked, and its page marked, as a word
			// store first.
			addr := c.readInt(u.rs1) + uint32(u.imm)
			c.readInt(u.rs2)
			if _, ok := c.memAccess(addr, 4); ok {
				c.markDirty(addr)
				c.crash("illegal store funct3 %d", c.inst(idx).Funct3)
			}
			return c.end()
		case kFlw:
			addr := c.readInt(u.rs1) + uint32(u.imm)
			lat, ok := c.memAccess(addr, 4)
			if !ok {
				return c.end()
			}
			c.writeFPRaw(u.rd, uint64(binary.LittleEndian.Uint32(c.mem[addr:])), c.cycle+lat)
		case kFld:
			addr := c.readInt(u.rs1) + uint32(u.imm)
			lat, ok := c.memAccess(addr, 8)
			if !ok {
				return c.end()
			}
			c.writeFPRaw(u.rd, binary.LittleEndian.Uint64(c.mem[addr:]), c.cycle+lat)
		case kFsw:
			addr := c.readInt(u.rs1) + uint32(u.imm)
			v := c.readFP(u.rs2)
			if _, ok := c.memAccess(addr, 4); !ok {
				return c.end()
			}
			c.markDirty(addr)
			binary.LittleEndian.PutUint32(c.mem[addr:], uint32(v))
		case kFsd:
			addr := c.readInt(u.rs1) + uint32(u.imm)
			v := c.readFP(u.rs2)
			if _, ok := c.memAccess(addr, 8); !ok {
				return c.end()
			}
			c.markDirty(addr)
			binary.LittleEndian.PutUint64(c.mem[addr:], v)

		case kBeq:
			if a, b := c.branchOperands(u); a == b {
				next = c.taken(u)
			}
		case kBne:
			if a, b := c.branchOperands(u); a != b {
				next = c.taken(u)
			}
		case kBlt:
			if a, b := c.branchOperands(u); int32(a) < int32(b) {
				next = c.taken(u)
			}
		case kBge:
			if a, b := c.branchOperands(u); int32(a) >= int32(b) {
				next = c.taken(u)
			}
		case kBltu:
			if a, b := c.branchOperands(u); a < b {
				next = c.taken(u)
			}
		case kBgeu:
			if a, b := c.branchOperands(u); a >= b {
				next = c.taken(u)
			}
		case kBNever:
			c.branchOperands(u)
		case kJal:
			c.writeInt(u.rd, c.pc+4, c.cycle+1)
			c.cycle += uint64(c.lat.BranchPenalty)
			next = c.pc + uint32(u.imm)
		case kJalr:
			target := (c.readInt(u.rs1) + uint32(u.imm)) &^ 1
			c.writeInt(u.rd, c.pc+4, c.cycle+1)
			c.cycle += uint64(c.lat.BranchPenalty)
			next = target
		case kEcall:
			if !c.execSyscall() {
				return c.end()
			}

		case kFPU:
			if !c.execFPUDatapath(u) {
				return c.end()
			}
		case kFmv:
			v := c.readFP(u.rs1)
			c.writeFPRaw(u.rd, v, c.cycle+1)
		case kFneg:
			v := c.readFP(u.rs1)
			c.writeFPRaw(u.rd, v^1<<63, c.cycle+1)
		case kFabs:
			v := c.readFP(u.rs1)
			c.writeFPRaw(u.rd, v&^(1<<63), c.cycle+1)
		case kFeq:
			a, b := math.Float64frombits(c.readFP(u.rs1)), math.Float64frombits(c.readFP(u.rs2))
			//teva:allow floateq -- FEQ.D is defined as exact IEEE-754 equality
			c.writeInt(u.rd, b2u(a == b), c.cycle+1)
		case kFlt:
			a, b := math.Float64frombits(c.readFP(u.rs1)), math.Float64frombits(c.readFP(u.rs2))
			c.writeInt(u.rd, b2u(a < b), c.cycle+1)
		case kFle:
			a, b := math.Float64frombits(c.readFP(u.rs1)), math.Float64frombits(c.readFP(u.rs2))
			c.writeInt(u.rd, b2u(a <= b), c.cycle+1)
		case kFmvXD:
			v := c.readFP(u.rs1)
			c.writeInt(u.rd, uint32(v), c.cycle+1)
		case kFmvDX:
			v := c.readInt(u.rs1)
			c.writeFPRaw(u.rd, uint64(v), c.cycle+1)
		case kFcvtSD:
			// Narrowing conversion via the softfp reference (not a gate-level
			// pipeline in the reference design; excluded from injection).
			d := math.Float64frombits(c.readFP(u.rs1))
			c.writeFPRaw(u.rd, uint64(math.Float32bits(float32(d))), c.cycle+3)
		case kFcvtDS:
			s := math.Float32frombits(uint32(c.readFP(u.rs1)))
			c.writeFPRaw(u.rd, math.Float64bits(float64(s)), c.cycle+3)
		case kFPBad:
			c.crash("illegal fp funct7 %d", c.inst(idx).Funct7)
			return c.end()
		}
		c.pc = next
	}
	c.res.Cycles = c.cycle
	return c.res, c.cycle < maxCycles
}

// end finishes RunTo for a run that has just halted or crashed.
func (c *CPU) end() (Result, bool) {
	c.res.Cycles = c.cycle
	return c.res, false
}

// inst decodes text word idx, for the trace and the rare crash messages
// that name an instruction field.
func (c *CPU) inst(idx uint32) isa.Inst {
	in, _ := isa.Decode(c.prog.Text[idx])
	return in
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// branchOperands counts a conditional branch and reads its operands.
func (c *CPU) branchOperands(u *uop) (uint32, uint32) {
	c.res.Branches++
	a := c.readInt(u.rs1)
	return a, c.readInt(u.rs2)
}

// taken redirects fetch to a taken branch's target and returns it.
func (c *CPU) taken(u *uop) uint32 {
	c.res.TakenBranches++
	c.cycle += uint64(c.lat.BranchPenalty)
	return c.pc + uint32(u.imm)
}

// readInt returns rs1's value, advancing the cycle to its ready time
// (scoreboard stall).
func (c *CPU) readInt(r uint8) uint32 {
	if t := c.intReady[r]; t > c.cycle {
		c.cycle = t
	}
	return c.xreg[r]
}

func (c *CPU) readFP(r uint8) uint64 {
	if t := c.fpReady[r]; t > c.cycle {
		c.cycle = t
	}
	return c.freg[r]
}

// writeInt performs an integer writeback, consulting the injector.
func (c *CPU) writeInt(r uint8, v uint32, ready uint64) {
	if c.cfg.Injector != nil {
		mask := c.cfg.Injector.OnWriteback(Event{
			Seq: c.res.Instret, Cycle: ready, Result: uint64(v), Width: 32,
		})
		if mask != 0 {
			v ^= uint32(mask)
			c.res.Injections++
		}
	}
	if r == 0 {
		return
	}
	c.xreg[r] = v
	c.intReady[r] = ready
}

// writeFPRaw writes an FP register without consulting the injector (loads
// and moves, which bypass the FPU datapath).
func (c *CPU) writeFPRaw(r uint8, v uint64, ready uint64) {
	c.freg[r] = v
	c.fpReady[r] = ready
}

// intDivide implements the RISC-style non-trapping division semantics.
func (c *CPU) intDivide(k kind, a, b uint32) uint32 {
	switch k {
	case kDiv:
		if b == 0 {
			return ^uint32(0)
		}
		if int32(a) == math.MinInt32 && int32(b) == -1 {
			return a
		}
		return uint32(int32(a) / int32(b))
	case kDivu:
		if b == 0 {
			return ^uint32(0)
		}
		return a / b
	case kRem:
		if b == 0 {
			return a
		}
		if int32(a) == math.MinInt32 && int32(b) == -1 {
			return 0
		}
		return uint32(int32(a) % int32(b))
	default: // remu
		if b == 0 {
			return a
		}
		return a % b
	}
}

// memAccess validates an address and returns the cache latency.
func (c *CPU) memAccess(addr uint32, size uint32) (uint64, bool) {
	if addr%size != 0 {
		c.crash("misaligned %d-byte access at %#x (pc %#x)", size, addr, c.pc)
		return 0, false
	}
	if uint64(addr)+uint64(size) > uint64(len(c.mem)) {
		c.crash("memory fault at %#x (pc %#x)", addr, c.pc)
		return 0, false
	}
	line := addr >> cacheLineLog
	slot := line % cacheLines
	if c.tags[slot] == line {
		return uint64(c.lat.CacheHit), true
	}
	c.tags[slot] = line
	c.res.DCacheMisses++
	return uint64(c.lat.CacheMiss), true
}

func (c *CPU) execSyscall() bool {
	code := c.readInt(10) // a0
	arg := c.readInt(11)  // a1
	switch code {
	case isa.SysPrintInt:
		c.print([]byte(fmt.Sprintf("%d", int32(arg))))
	case isa.SysPrintFP:
		c.print([]byte(fmt.Sprintf("%g", math.Float64frombits(c.readFP(10)))))
	case isa.SysPrintChar:
		c.print([]byte{byte(arg)})
	case isa.SysPrintStr:
		for addr := arg; ; addr++ {
			if uint64(addr) >= uint64(len(c.mem)) {
				c.crash("string fault at %#x", addr)
				return false
			}
			b := c.mem[addr]
			if b == 0 {
				break
			}
			c.print([]byte{b})
		}
	case isa.SysCycles:
		c.writeInt(10, uint32(c.cycle), c.cycle+1)
	case isa.SysExit:
		c.res.Status = Halted
		c.res.ExitCode = int32(arg)
		return false
	default:
		c.crash("unknown syscall %d", code)
		return false
	}
	return true
}

func (c *CPU) print(b []byte) {
	if len(c.output)+len(b) <= c.cfg.MaxOutput {
		c.output = append(c.output, b...)
	}
}

// fpOpFor maps an FPU-datapath funct7 to its pipeline (an array, not a
// map: it is read on every FP instruction).
var fpOpFor = [fpu.NumOps]fpu.Op{
	isa.FPAddD: fpu.DAdd, isa.FPSubD: fpu.DSub, isa.FPMulD: fpu.DMul,
	isa.FPDivD: fpu.DDiv, isa.FPI2FD: fpu.DI2F, isa.FPF2ID: fpu.DF2I,
	isa.FPAddS: fpu.SAdd, isa.FPSubS: fpu.SSub, isa.FPMulS: fpu.SMul,
	isa.FPDivS: fpu.SDiv, isa.FPI2FS: fpu.SI2F, isa.FPF2IS: fpu.SF2I,
}

// execFPUDatapath executes one of the 12 modelled FPU instructions
// (bit-identical to the gate-level golden model; see goldenWithFlags) and
// offers the writeback to the injector.
func (c *CPU) execFPUDatapath(u *uop) bool {
	op := u.fpOp
	form := &fpForms[op]
	var a, b uint64
	if form.intSrc {
		a = uint64(c.readInt(u.rs1))
	} else {
		a = c.readFP(u.rs1) & form.srcMask
		if form.twoSrc {
			b = c.readFP(u.rs2) & form.srcMask
		}
	}
	result, invalid := goldenWithFlags(op, a, b)
	if c.cfg.TrapFPInvalid && invalid {
		c.crash("fp invalid-operation exception (%v at pc %#x)", op, c.pc)
		return false
	}
	lat := uint64(c.lat.FP[op])
	if form.div {
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
			Width: form.width,
		})
		if mask != 0 {
			result ^= mask & form.resMask
			c.res.Injections++
		}
	}
	if form.intDst {
		c.writeInt(u.rd, uint32(result), ready)
	} else {
		c.writeFPRaw(u.rd, result, ready)
	}
	return true
}

// fpForm is what executing an FPU op needs to know of it, resolved once
// per op rather than re-derived from fpu.Op on every instruction.
type fpForm struct {
	intSrc  bool   // i2f: the source is an integer register
	twoSrc  bool   // the op reads rs2
	intDst  bool   // f2i: the result goes to an integer register
	div     bool   // the op occupies the unpipelined divider
	width   int    // the result width in bits
	srcMask uint64 // the operand bits the datapath reads
	resMask uint64 // the result bits an injected mask may flip
}

var fpForms = func() (t [fpu.NumOps]fpForm) {
	for _, op := range fpu.Ops() {
		src := ^uint64(0)
		if !op.Double() {
			src = 0xffffffff
		}
		t[op] = fpForm{
			intSrc:  op == fpu.DI2F || op == fpu.SI2F,
			twoSrc:  op.NumOperands() == 2,
			intDst:  op == fpu.DF2I || op == fpu.SF2I,
			div:     op == fpu.DDiv || op == fpu.SDiv,
			width:   op.ResultWidth(),
			srcMask: src,
			resMask: widthMask(op.ResultWidth()),
		}
	}
	return t
}()

func widthMask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(w) - 1
}

// goldenWithFlags computes the result the gate-level FPU produces and
// whether the operation is invalid (the trap condition). That result is
// softfp's flush-to-zero, round-to-nearest-even one; nativeFP supplies it
// with one host IEEE operation wherever the two provably agree, and every
// other case, including every invalid one, takes the softfp call.
func goldenWithFlags(op fpu.Op, a, b uint64) (uint64, bool) {
	if r, ok := nativeFP(op, a, b); ok {
		return r, false
	}
	return softfpWithFlags(op, a, b)
}

// softfpWithFlags is op's softfp result and whether it raised invalid.
func softfpWithFlags(op fpu.Op, a, b uint64) (uint64, bool) {
	f := op.Format()
	var r uint64
	var fl softfp.Flags
	switch op {
	case fpu.DAdd, fpu.SAdd:
		r, fl = f.Add(a, b)
	case fpu.DSub, fpu.SSub:
		r, fl = f.Sub(a, b)
	case fpu.DMul, fpu.SMul:
		r, fl = f.Mul(a, b)
	case fpu.DDiv, fpu.SDiv:
		r, fl = f.Div(a, b)
	case fpu.DI2F, fpu.SI2F:
		r, fl = f.FromInt32(int32(uint32(a)))
	case fpu.DF2I, fpu.SF2I:
		i, ifl := f.ToInt32(a)
		return uint64(uint32(i)), ifl.Has(softfp.FlagInvalid)
	}
	return r, fl.Has(softfp.FlagInvalid)
}

// nativeFP computes op with one host IEEE-754 operation and reports
// whether that result is bit-identical to softfp's. Both round to nearest
// even, so they differ only where FTZ does:
//   - add, sub, mul and div qualify when both operands are normal and the
//     host result's biased exponent lies in [2, max-1]. A result that
//     rounds to exponent 1 is excluded: softfp rounds a subnormal exact
//     value at full precision before flushing, so where the host rounds
//     up to the smallest normal, softfp can give zero. Normal operands
//     never raise invalid;
//   - i2f always qualifies (exact for binary64, correctly rounded for
//     binary32);
//   - f2i qualifies for normal operands strictly inside (-2^31, 2^31),
//     where both truncate toward zero without saturating.
func nativeFP(op fpu.Op, a, b uint64) (uint64, bool) {
	switch op {
	case fpu.DAdd, fpu.DSub, fpu.DMul, fpu.DDiv:
		if !normal64(a) || !normal64(b) {
			return 0, false
		}
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		var z float64
		switch op {
		case fpu.DAdd:
			z = x + y
		case fpu.DSub:
			z = x - y
		case fpu.DMul:
			z = x * y
		default:
			z = x / y
		}
		r := math.Float64bits(z)
		if e := r >> 52 & 0x7ff; e < 2 || e == 0x7ff {
			return 0, false
		}
		return r, true
	case fpu.SAdd, fpu.SSub, fpu.SMul, fpu.SDiv:
		if !normal32(a) || !normal32(b) {
			return 0, false
		}
		x, y := math.Float32frombits(uint32(a)), math.Float32frombits(uint32(b))
		var z float32
		switch op {
		case fpu.SAdd:
			z = x + y
		case fpu.SSub:
			z = x - y
		case fpu.SMul:
			z = x * y
		default:
			z = x / y
		}
		r := math.Float32bits(z)
		if e := r >> 23 & 0xff; e < 2 || e == 0xff {
			return 0, false
		}
		return uint64(r), true
	case fpu.DI2F:
		return math.Float64bits(float64(int32(uint32(a)))), true
	case fpu.SI2F:
		return uint64(math.Float32bits(float32(int32(uint32(a))))), true
	case fpu.DF2I:
		// Biased exponent 1023+31 is 2^31; below it |x| < 2^31.
		if !normal64(a) || a>>52&0x7ff >= 1023+31 {
			return 0, false
		}
		return uint64(uint32(int32(math.Float64frombits(a)))), true
	case fpu.SF2I:
		if !normal32(a) || a>>23&0xff >= 127+31 {
			return 0, false
		}
		return uint64(uint32(int32(math.Float32frombits(uint32(a))))), true
	}
	return 0, false
}

// normal64 and normal32 report whether an encoding is a normal number:
// biased exponent in [1, max-1]. normal32 reads the low 32 bits.
func normal64(x uint64) bool { e := x >> 52 & 0x7ff; return e != 0 && e != 0x7ff }
func normal32(x uint64) bool { e := x >> 23 & 0xff; return e != 0 && e != 0xff }
