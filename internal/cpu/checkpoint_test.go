package cpu

import (
	"bytes"
	"testing"

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
