package cpu

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"unsafe"

	"teva/internal/isa"
	"teva/internal/prng"
	"teva/internal/workloads"
)

// flipAny is a stochastic DA-style injector: every writeback suffers a
// single uniformly chosen bit flip with probability er.
type flipAny struct {
	src *prng.Source
	er  float64
}

func (d *flipAny) OnWriteback(ev Event) uint64 {
	if d.src.Float64() >= d.er {
		return 0
	}
	return 1 << uint(d.src.Intn(ev.Width))
}

// flipFPU is a stochastic IA-style injector: only FPU-datapath results
// are corrupted, with probability er, by a random non-zero mask.
type flipFPU struct {
	src *prng.Source
	er  float64
}

func (d *flipFPU) OnWriteback(ev Event) uint64 {
	if !ev.FPUDatapath || d.src.Float64() >= d.er {
		return 0
	}
	return d.src.Uint64()&widthMask(ev.Width) | 1
}

// sameCPU reports how a and b differ: Result, state, console, dirty
// pages and memory, in that order ("" when they agree).
func sameCPU(a, b *CPU) string {
	if d := sameScalars(a, b); d != "" {
		return d
	}
	if !bytes.Equal(a.mem, b.mem) {
		return "memory"
	}
	return ""
}

// sameScalars is sameCPU without memory.
func sameScalars(a, b *CPU) string {
	switch {
	case a.res != b.res:
		return "result"
	case a.state != b.state:
		return "state"
	case !bytes.Equal(a.output, b.output):
		return "console"
	case !slices.Equal(a.dirty, b.dirty):
		return "dirty pages"
	}
	return ""
}

// TestExecutorMatchesReference runs every workload at Tiny on the
// predecoded executor and on the reference one, with no injector and
// with stochastic DA- and IA-style injectors, and requires the same
// Result, state, console and memory. The executor runs in odd-sized
// RunTo steps, so pausing is checked too.
func TestExecutorMatchesReference(t *testing.T) {
	for _, name := range workloads.AllNames() {
		w := tinyWorkload(t, name)
		golden := New(w.Program, checkpointConfig).Run(1 << 40)
		budget := 2 * golden.Cycles
		for _, mode := range []string{"none", "da", "ia"} {
			for seed := uint64(1); seed <= 3; seed++ {
				inj := func() Injector {
					switch mode {
					case "da":
						return &flipAny{src: prng.New(seed), er: 5 / float64(golden.Instret)}
					case "ia":
						return &flipFPU{src: prng.New(seed), er: 0.002}
					}
					return nil
				}
				cfg := checkpointConfig
				cfg.Injector = inj()
				got := New(w.Program, cfg)
				for stop, paused := int64(0), true; paused; stop += 4099 {
					_, paused = got.RunTo(budget, stop)
				}
				cfg.Injector = inj()
				want := New(w.Program, cfg)
				want.refRunTo(budget, math.MaxInt64)
				if d := sameCPU(got, want); d != "" {
					t.Errorf("%s %s seed %d: %s differs\nexecutor  %+v\nreference %+v", name, mode, seed, d, got.res, want.res)
				}
				if mode == "none" {
					break
				}
			}
		}
	}
}

// TestUopSize keeps the lowered text compact: a few KiB per simulator.
func TestUopSize(t *testing.T) {
	if n := unsafe.Sizeof(uop{}); n > 12 {
		t.Fatalf("uop is %d bytes, want at most 12", n)
	}
}

// TestF2IOffersTwoEvents pins a known defect rather than silently
// changing it: an f2i offers the injector its FPU event and then a
// second, integer event for the same instruction, so a stochastic DA
// injector draws twice for it and can flip its result twice. Fixing it
// changes DA stochastic outcomes and needs its own golden change.
func TestF2IOffersTwoEvents(t *testing.T) {
	for _, mn := range []string{"fcvt.w.d", "fcvt.w.s"} {
		p := isa.MustAssemble(`
.text
main:
    ` + mn + ` t0, f1
    li   a0, 10
    li   a1, 0
    ecall
`)
		var evs []Event
		c := New(p, Config{Injector: injectorFunc(func(ev Event) uint64 {
			evs = append(evs, ev)
			return 1
		})})
		res := c.Run(1 << 20)
		if len(evs) < 2 || evs[0].Seq != 1 || evs[1].Seq != 1 {
			t.Fatalf("%s: events %+v", mn, evs)
		}
		if !evs[0].FPUDatapath || evs[1].FPUDatapath || evs[1].Width != 32 {
			t.Fatalf("%s: want an FPU event then an integer one, got %+v", mn, evs[:2])
		}
		if res.Injections != int64(len(evs)) || c.xreg[5] != 0 {
			t.Fatalf("%s: injections %d of %d events, t0 %#x (two flips of bit 0 cancel)", mn, res.Injections, len(evs), c.xreg[5])
		}
	}
}

type injectorFunc func(Event) uint64

func (f injectorFunc) OnWriteback(ev Event) uint64 { return f(ev) }

// fuzzMem is the fuzzed simulator's memory size: the data segment's base
// plus a page, the least New accepts.
const fuzzMem = isa.DataBase + pageSize

// fuzzState draws a random starting state: registers hold a mix of
// random words, small integers, division edge cases, text addresses
// (odd ones included, for jalr) and in-range data addresses; FP
// registers hold random encodings, normal values and specials.
func fuzzState(src *prng.Source, textLen int) state {
	s := resetState(&isa.Program{Entry: isa.TextBase})
	s.cycle = src.Uint64n(1 << 20)
	for r := 1; r < 32; r++ {
		var v uint32
		switch src.Intn(6) {
		case 0:
			v = src.Uint32()
		case 1:
			v = uint32(src.Intn(64)) - 32
		case 2:
			v = []uint32{0, 1, ^uint32(0), 1 << 31, 31, 32}[src.Intn(6)]
		case 3:
			v = isa.TextBase + uint32(src.Intn(4*textLen+8)) - 4
		default:
			v = uint32(src.Intn(fuzzMem+16)) &^ uint32(src.Intn(8))
		}
		s.xreg[r] = v
		s.intReady[r] = s.cycle + src.Uint64n(64)
	}
	specials := []uint64{0, 1 << 63, 0x7ff0000000000000, 0x7ff8000000000000, 1, 0x7f800000, 0x7fc00000, 0x00000001, 0x80000000}
	for r := range s.freg {
		var v uint64
		switch src.Intn(4) {
		case 0:
			v = src.Uint64()
		case 1:
			v = math.Float64bits(src.NormFloat64() * float64(int64(1)<<src.Intn(40)))
		case 2:
			v = uint64(math.Float32bits(float32(src.NormFloat64() * 1000)))
		default:
			v = specials[src.Intn(len(specials))]
		}
		s.freg[r] = v
		s.fpReady[r] = s.cycle + src.Uint64n(64)
	}
	s.divFree = s.cycle + src.Uint64n(64)
	s.fpDivFree = s.cycle + src.Uint64n(128)
	return s
}

// refPair is one program loaded into the predecoded executor and into
// the reference one.
type refPair struct{ got, want *CPU }

func newRefPair(text []uint32) refPair {
	p := &isa.Program{Text: text, Entry: isa.TextBase}
	return refPair{New(p, Config{MemSize: fuzzMem}), New(p, Config{MemSize: fuzzMem})}
}

// check runs the program from a random state drawn from seed, one
// instruction at a time for at most 64, and requires Result, state,
// console and dirty pages to agree after each one and memory at the end.
// Operand ready times lie up to 64 cycles ahead, past the first fetch's
// icache miss, so scoreboard stalls are exercised.
func (rp refPair) check(t *testing.T, seed uint64) {
	t.Helper()
	src := prng.New(seed)
	s := fuzzState(src, len(rp.got.prog.Text))
	memSeed, er, trap := src.Uint64(), src.Float64()/2, src.Bool()
	for _, c := range []*CPU{rp.got, rp.want} {
		c.Reset()
		c.state = s
		c.cfg.TrapFPInvalid = trap
		c.SetInjector(&flipAny{src: prng.New(seed), er: er})
		m := prng.New(memSeed)
		for _, a := range []int{0, isa.DataBase} {
			for end := a + pageSize; a < end; a += 8 {
				binary.LittleEndian.PutUint64(c.mem[a:], m.Uint64())
			}
		}
	}
	got, want := rp.got, rp.want
	for step := 0; step < 64; step++ {
		stop := got.res.Instret + 1
		_, gp := got.RunTo(1<<40, stop)
		_, wp := want.refRunTo(1<<40, stop)
		if d := sameScalars(got, want); d != "" || gp != wp {
			t.Fatalf("seed %d step %d: %s differs, paused %v/%v\nexecutor  %+v\nreference %+v", seed, step, d, gp, wp, got.state, want.state)
		}
		if !gp {
			break
		}
	}
	if !bytes.Equal(got.mem, want.mem) {
		t.Fatalf("seed %d: memory differs", seed)
	}
}

// encodingCorpus lists words that together reach every opcode, every
// funct3 of each, the defined and some undefined funct7 values, every
// FP function and some reserved ones, and illegal opcodes.
func encodingCorpus() []uint32 {
	var words []uint32
	ops := []isa.Opcode{isa.OpLoad, isa.OpFLoad, isa.OpIntImm, isa.OpAuipc, isa.OpStore, isa.OpFStore,
		isa.OpInt, isa.OpLui, isa.OpBranch, isa.OpJalr, isa.OpJal, isa.OpSys}
	for _, op := range ops {
		for f3 := uint8(0); f3 < 8; f3++ {
			for _, f7 := range []uint8{0, isa.F7MulD, isa.F7Alt, 0x7f} {
				in := isa.Inst{Op: op, Rd: 5 + f3, Rs1: 10 + f3, Rs2: 20 + f3, Funct3: f3, Funct7: f7, Imm: int32(f7)<<5 | int32(f3)}
				if op == isa.OpBranch || op == isa.OpJal {
					in.Imm = int32(f3) * 2 // in-text and misaligned (pc+2, pc+6, …) targets
				}
				words = append(words, in.Encode())
			}
		}
	}
	for f7 := uint8(0); f7 < 0x80; f7++ {
		if f7 <= uint8(isa.FPCvtDS)+2 || f7 == 0x7f {
			words = append(words, isa.Inst{Op: isa.OpFP, Rd: 3, Rs1: f7 % 32, Rs2: 7, Funct7: f7}.Encode())
		}
	}
	return append(words, 0, 0x7f, 0xffffffff, 0x0000000b)
}

// corpusProgram is the short program that exercises corpus word i: the
// word, two others, and the word again.
func corpusProgram(words []uint32, i int) []uint32 {
	return []uint32{words[i], words[(i*7+1)%len(words)], words[(i*13+5)%len(words)], words[i]}
}

// TestEncodingsMatchReference runs every corpus program from 16 random
// states on both executors.
func TestEncodingsMatchReference(t *testing.T) {
	words := encodingCorpus()
	for i := range words {
		rp := newRefPair(corpusProgram(words, i))
		for seed := uint64(0); seed < 16; seed++ {
			rp.check(t, uint64(i)<<8|seed)
		}
	}
}

// FuzzExecutorMatchesReference executes random instruction words from a
// random register and memory state, checking the predecoded executor
// against the reference after every instruction. The seed corpus holds
// the corpus programs.
func FuzzExecutorMatchesReference(f *testing.F) {
	words := encodingCorpus()
	for i := range words {
		text := corpusProgram(words, i)
		b := make([]byte, 4*len(text))
		for j, w := range text {
			binary.LittleEndian.PutUint32(b[4*j:], w)
		}
		f.Add(uint64(i), b)
	}
	f.Fuzz(func(t *testing.T, seed uint64, code []byte) {
		text := make([]uint32, min(len(code)/4, 32))
		for i := range text {
			text[i] = binary.LittleEndian.Uint32(code[4*i:])
		}
		if len(text) > 0 {
			newRefPair(text).check(t, seed)
		}
	})
}
