package cpu

import (
	"bytes"
	"testing"

	"teva/internal/isa"
	"teva/internal/prng"
	"teva/internal/workloads"
)

var checkpointConfig = Config{TrapFPInvalid: true}

// goldenOf runs w from reset to halt on a fresh CPU.
func goldenOf(t *testing.T, w *workloads.Workload) (*CPU, Result) {
	t.Helper()
	c := New(w.Program, checkpointConfig)
	res := c.Run(1 << 40)
	if res.Status != Halted {
		t.Fatalf("%s golden: %v (%s)", w.Name, res.Status, res.Reason)
	}
	return c, res
}

// recordOf records w with about n checkpoints at an odd interval, so
// checkpoints fall at arbitrary points of the program.
func recordOf(t *testing.T, w *workloads.Workload, golden Result, n int64) *Recording {
	t.Helper()
	rec, res := Record(w.Program, checkpointConfig, golden.Instret/n|1, 1<<40)
	if res != golden {
		t.Fatalf("%s: recorded run %+v, golden %+v", w.Name, res, golden)
	}
	return rec
}

func tinyWorkload(t *testing.T, name string) *workloads.Workload {
	t.Helper()
	w, err := workloads.ByName(name, workloads.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestCheckpointRestoreRunsToGolden restores every checkpoint, in an
// order that moves both forwards and backwards through the recording
// and through reset, on one reused CPU, and requires each run to halt
// exactly as the uninterrupted golden run did: the same Result, memory
// and console.
func TestCheckpointRestoreRunsToGolden(t *testing.T) {
	for _, name := range []string{"is", "cg", "srad_v1"} {
		w := tinyWorkload(t, name)
		want, golden := goldenOf(t, w)
		rec := recordOf(t, w, golden, 12)
		var order []int
		for k := rec.Len() - 1; k >= 0; k -= 2 {
			order = append(order, k)
		}
		for k := 0; k < rec.Len(); k += 2 {
			order = append(order, k, -1) // -1: Reset
		}
		c := New(w.Program, checkpointConfig)
		for _, k := range order {
			if k < 0 {
				c.Reset()
			} else {
				c.Restore(rec, k)
			}
			res := c.Run(1 << 40)
			if res != golden {
				t.Fatalf("%s from checkpoint %d: %+v, golden %+v", name, k, res, golden)
			}
			if !bytes.Equal(c.Mem(), want.Mem()) || !bytes.Equal(c.Output(), want.Output()) {
				t.Fatalf("%s from checkpoint %d: memory or console differs from golden", name, k)
			}
		}
	}
}

// TestCheckpointMatches checks that an unperturbed run matches golden at
// every later checkpoint, and that a one-bit flip in a register, a
// memory byte, a cache tag or the console makes it differ, while the
// injection count alone does not.
func TestCheckpointMatches(t *testing.T) {
	w := tinyWorkload(t, "is")
	_, golden := goldenOf(t, w)
	rec := recordOf(t, w, golden, 10)
	c := New(w.Program, checkpointConfig)
	for _, from := range []int{0, 3} {
		c.Restore(rec, from)
		for j := from; j < rec.Len(); j++ {
			if _, paused := c.RunTo(1<<40, rec.At(j).Instret); !paused {
				t.Fatalf("run from %d ended before checkpoint %d", from, j)
			}
			if !c.Matches(rec, j) {
				t.Fatalf("unperturbed run from checkpoint %d does not match checkpoint %d", from, j)
			}
		}
	}

	const k = 6
	// A page the golden run stores to between checkpoints k-1 and k.
	page := rec.stored[k][0]
	flips := []struct {
		name string
		flip func(c *CPU)
	}{
		{"register", func(c *CPU) { c.xreg[9] ^= 1 }},
		{"fp register", func(c *CPU) { c.freg[3] ^= 1 << 40 }},
		{"scoreboard", func(c *CPU) { c.fpReady[1]++ }},
		{"cache tag", func(c *CPU) { c.tags[17] ^= 1 }},
		{"icache tag", func(c *CPU) { c.itags[3] ^= 1 }},
		{"counter", func(c *CPU) { c.res.DCacheMisses++ }},
		{"console", func(c *CPU) { c.output = append(c.output, '!') }},
		{"golden-stored byte", func(c *CPU) { c.mem[int(page)<<pageLog+5] ^= 1 }},
		{"run-stored byte", func(c *CPU) {
			addr := uint32(3 << 20)
			c.mem[addr] ^= 0x80
			c.markDirty(addr)
		}},
	}
	for _, f := range flips {
		c.Restore(rec, k-1)
		c.RunTo(1<<40, rec.At(k).Instret)
		f.flip(c)
		if c.Matches(rec, k) {
			t.Errorf("%s flip: state still matches golden", f.name)
		}
	}
	// A run that reaches checkpoint k's registers without the golden
	// run's stores of the interval differs in memory it never touched.
	c.Restore(rec, k-1)
	c.state = rec.cps[k].state
	if c.Matches(rec, k) {
		t.Error("missing golden stores: state still matches golden")
	}
	c.Restore(rec, k-1)
	c.RunTo(1<<40, rec.At(k).Instret)
	c.res.Injections = 3
	if !c.Matches(rec, k) {
		t.Error("the injection count alone made the state differ")
	}
}

// TestCheckpointZeroAlloc pins Restore and Matches at zero allocations:
// a campaign calls them for every run.
func TestCheckpointZeroAlloc(t *testing.T) {
	w := tinyWorkload(t, "cg")
	_, golden := goldenOf(t, w)
	rec := recordOf(t, w, golden, 8)
	c := New(w.Program, checkpointConfig)
	last := rec.Len() - 1
	if n := testing.AllocsPerRun(20, func() {
		c.Restore(rec, 2)
		c.RunTo(1<<40, rec.At(3).Instret)
		c.Restore(rec, last)
	}); n != 0 {
		t.Errorf("Restore allocates %v times per call pair", n)
	}
	c.Restore(rec, 2)
	c.RunTo(1<<40, rec.At(last).Instret)
	if n := testing.AllocsPerRun(20, func() {
		if !c.Matches(rec, last) {
			t.Fatal("unperturbed run does not match")
		}
	}); n != 0 {
		t.Errorf("Matches allocates %v times per call", n)
	}
}

// TestCheckpointRunToResumes checks that pausing and resuming a run
// changes nothing: RunTo in small steps ends as Run does.
func TestCheckpointRunToResumes(t *testing.T) {
	w := tinyWorkload(t, "mg")
	_, golden := goldenOf(t, w)
	c := New(w.Program, checkpointConfig)
	var res Result
	for stop, paused := int64(0), true; paused; stop += 1013 {
		res, paused = c.RunTo(1<<40, stop)
	}
	if res != golden {
		t.Fatalf("stepped run %+v, golden %+v", res, golden)
	}
	// A budget that ends mid-interval times out exactly as Run does.
	c.Reset()
	short := New(w.Program, checkpointConfig).Run(golden.Cycles / 3)
	res, paused := c.RunTo(golden.Cycles/3, golden.Instret)
	if paused || res != short || res.Status != TimedOut {
		t.Fatalf("budgeted RunTo %+v (paused %v), Run %+v", res, paused, short)
	}
}

// resetImage is the memory New must hand out for prog: all zero but the
// data segment.
func resetImage(prog *isa.Program) []byte {
	mem := make([]byte, isa.DefaultMemSize)
	copy(mem[isa.DataBase:], prog.Data)
	return mem
}

// pageWalker stores to 512 consecutive pages past its data segment,
// which it never writes: memory that only checkpoints and dirty pages
// account for, next to reset data only the data segment does.
const pageWalker = `
.data
seed: .word 0x5eed, 7, 9
.text
main:
    li   t0, 0x300000
    li   t1, 0x340000
    li   t2, 1
    li   t3, 512
loop:
    sw   t2, 0(t0)
    addi t2, t2, 1
    add  t0, t0, t3
    blt  t0, t1, loop
    li   a0, 10
    li   a1, 0
    ecall
`

// TestReleasedMemoryIsReset releases simulators left in each state a
// campaign leaves them in — a crashed stochastic run, restores to several
// checkpoints, and Record's own — and requires the recycled memory to be
// all zero, so that New, for the same program or another, hands out
// exactly the reset image. A released CPU must refuse to run.
func TestReleasedMemoryIsReset(t *testing.T) {
	cg := tinyWorkload(t, "cg").Program
	walker, err := isa.Assemble(pageWalker)
	if err != nil {
		t.Fatal(err)
	}
	recordings := map[*isa.Program]*Recording{}
	goldens := map[*isa.Program]Result{}
	for _, p := range []*isa.Program{cg, walker} {
		golden := New(p, checkpointConfig).Run(1 << 40)
		if golden.Status != Halted {
			t.Fatalf("golden run: %v (%s)", golden.Status, golden.Reason)
		}
		goldens[p] = golden
		recordings[p], _ = Record(p, checkpointConfig, golden.Instret/20|1, 1<<40)
	}
	crashed := func(p *isa.Program) *CPU {
		for seed := uint64(1); seed < 64; seed++ {
			inj := &flipAny{src: prng.New(seed), er: 0.01}
			c := New(p, Config{Injector: inj, TrapFPInvalid: true})
			if c.Run(2*goldens[p].Cycles).Status == Crashed {
				return c
			}
		}
		t.Fatal("no stochastic run crashed")
		return nil
	}
	restored := func(p *isa.Program) *CPU {
		rec := recordings[p]
		c := New(p, checkpointConfig)
		last := rec.Len() - 1
		for _, k := range []int{last, 2, last / 2, last - 1} {
			c.Restore(rec, k)
			c.RunTo(1<<40, rec.At(k).Instret+50)
		}
		return c
	}
	recorded := func(p *isa.Program) *CPU {
		Record(p, checkpointConfig, goldens[p].Instret/9|1, 1<<40)
		return nil
	}
	// Each scenario returns the simulator to release, or nil when it
	// released its own.
	scenarios := []struct {
		name string
		prog *isa.Program
		use  func(*isa.Program) *CPU
	}{
		{"crashed stochastic cg run", cg, crashed},
		{"cg restored to checkpoints", cg, restored},
		{"page walker restored to checkpoints", walker, restored},
		{"page walker Record", walker, recorded},
	}
	for _, sc := range scenarios {
		for _, next := range []*isa.Program{cg, walker} {
			// Empty the pool, so that a buffer found in it below is the
			// one this scenario released.
			for memPool.Get() != nil {
			}
			var mem []byte
			if c := sc.use(sc.prog); c != nil {
				mem = c.mem
				c.Release()
			} else if p, _ := memPool.Get().(*[]byte); p != nil {
				// The pool may drop a buffer (and always may under the
				// race detector); when it kept Record's, that is this one.
				mem = *p
				memPool.Put(p)
			}
			if mem != nil && !allZero(mem) {
				t.Fatalf("%s: released memory is not all zero", sc.name)
			}
			c := New(next, checkpointConfig)
			if !bytes.Equal(c.Mem(), resetImage(next)) {
				t.Fatalf("%s, then New: memory differs from the reset image", sc.name)
			}
			c.Release()
		}
	}

	c := New(cg, checkpointConfig)
	c.Release()
	defer func() {
		if recover() == nil {
			t.Error("Run on a released CPU did not panic")
		}
	}()
	c.Run(1 << 40)
}
