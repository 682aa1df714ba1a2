package cpu

import (
	"bytes"
	"math/bits"
	"sync"

	"teva/internal/isa"
)

// Memory is tracked in pages: stores mark their page dirty, so a
// checkpoint copies, and a restore rewrites, only the pages a run stored
// to. Accesses are naturally aligned and at most 8 bytes wide, so a store
// never straddles two pages.
const (
	pageLog  = 9
	pageSize = 1 << pageLog
)

// Recording is a golden run's checkpoints: the full simulator state every
// interval retired instructions, taken between instructions, with
// checkpoint 0 the reset state. Memory is kept as sparse page versions:
// a checkpoint stores only the pages written since the previous one, and
// a page's contents at checkpoint k are its latest version at or before k
// (the reset image when there is none). A Recording is immutable once
// Record returns, so any number of CPUs may restore from it at once.
type Recording struct {
	prog *isa.Program
	cps  []checkpoint
	// console is the golden console output; checkpoint k's is the prefix
	// of length cps[k].outLen (the console only ever grows).
	console []byte
	// versions holds, per page, its contents at each checkpoint that
	// follows a store to it, oldest first.
	versions map[uint32][]pageVersion
	// stored[k] lists the pages with a version at checkpoint k.
	stored [][]uint32
}

type checkpoint struct {
	state
	outLen int
}

type pageVersion struct {
	k    int
	data []byte
}

// Record runs prog from reset under cfg until it halts, crashes or uses
// maxCycles, taking a checkpoint every interval retired instructions, and
// returns the checkpoints with the run's result. cfg must not inject: a
// recording stands for the error-free execution.
func Record(prog *isa.Program, cfg Config, interval int64, maxCycles uint64) (*Recording, Result) {
	c := New(prog, cfg)
	r := &Recording{prog: prog, versions: map[uint32][]pageVersion{}}
	r.take(c)
	for {
		res, paused := c.RunTo(maxCycles, int64(len(r.cps))*interval)
		if !paused {
			r.console = append([]byte(nil), c.output...)
			r.cps = append([]checkpoint(nil), r.cps...) // drop append's spare capacity
			// take cleared c.dirty at each checkpoint: the pages stored
			// to before the last one are the ones the recording versioned.
			r.markStored(c.dirty, 0, len(r.cps)-1)
			c.Release()
			return r, res
		}
		r.take(c)
	}
}

// take appends a checkpoint of c's current state, versioning the pages
// stored to since the previous one.
func (r *Recording) take(c *CPU) {
	k := len(r.cps)
	r.cps = append(r.cps, checkpoint{state: c.state, outLen: len(c.output)})
	var pages []uint32
	for w, word := range c.dirty {
		for ; word != 0; word &= word - 1 {
			pages = append(pages, uint32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	arena := make([]byte, len(pages)*pageSize)
	for i, p := range pages {
		data := arena[i*pageSize : (i+1)*pageSize : (i+1)*pageSize]
		data = data[:copy(data, c.page(p))]
		r.versions[p] = append(r.versions[p], pageVersion{k: k, data: data})
	}
	r.stored = append(r.stored, pages)
	clear(c.dirty)
}

// Len returns the number of checkpoints.
func (r *Recording) Len() int { return len(r.cps) }

// At returns the run's counters at checkpoint k (Instret, FPOps, cycle
// and cache counts; Status is TimedOut, as for any unfinished run).
func (r *Recording) At(k int) Result { return r.cps[k].res }

// pageAt returns page p's contents at checkpoint k, or nil when the page
// still holds its reset image there.
func (r *Recording) pageAt(p uint32, k int) []byte {
	if k == 0 {
		return nil
	}
	vs := r.versions[p]
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].k <= k {
			return vs[i].data
		}
	}
	return nil
}

// markStored ORs into set the pages r versioned at checkpoints lo+1..hi:
// every page whose contents at hi may differ from those at lo.
func (r *Recording) markStored(set []uint64, lo, hi int) {
	for k := lo + 1; k <= hi; k++ {
		for _, p := range r.stored[k] {
			set[p>>6] |= 1 << (p & 63)
		}
	}
}

func (c *CPU) markDirty(addr uint32) {
	p := addr >> pageLog
	c.dirty[p>>6] |= 1 << (p & 63)
}

// page returns the memory of page p.
func (c *CPU) page(p uint32) []byte {
	lo := int(p) << pageLog
	return c.mem[lo:min(lo+pageSize, len(c.mem))]
}

// resetData returns where the program's initial data overlaps page p:
// the page-relative offset and the bytes (none when it does not).
func (c *CPU) resetData(p uint32) (int, []byte) {
	lo := int(p) << pageLog
	hi := min(lo+pageSize, len(c.mem))
	start := max(lo, isa.DataBase)
	end := min(hi, isa.DataBase+len(c.prog.Data))
	if start >= end {
		return 0, nil
	}
	return start - lo, c.prog.Data[start-isa.DataBase : end-isa.DataBase]
}

// loadPage sets page p to src, or to its reset image when src is nil.
func (c *CPU) loadPage(p uint32, src []byte) {
	dst := c.page(p)
	if src != nil {
		copy(dst, src)
		return
	}
	clear(dst)
	off, data := c.resetData(p)
	copy(dst[off:], data)
}

// pageEqual reports whether page p equals src, or its reset image when
// src is nil.
func (c *CPU) pageEqual(p uint32, src []byte) bool {
	pg := c.page(p)
	if src != nil {
		return bytes.Equal(pg, src)
	}
	off, data := c.resetData(p)
	return allZero(pg[:off]) && bytes.Equal(pg[off:off+len(data)], data) && allZero(pg[off+len(data):])
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// markChanged ORs into c.dirty every page whose contents may differ
// between the checkpoint memory was restored from and checkpoint k of
// rec (nil rec: the reset image).
func (c *CPU) markChanged(rec *Recording, k int) {
	if c.base != nil && c.base == rec {
		rec.markStored(c.dirty, min(c.baseK, k), max(c.baseK, k))
		return
	}
	if c.base != nil {
		c.base.markStored(c.dirty, 0, c.baseK)
	}
	if rec != nil {
		rec.markStored(c.dirty, 0, k)
	}
}

// memPool holds all-zero memory buffers that Release gave back, so New
// reuses one instead of allocating and zeroing a fresh one.
var memPool sync.Pool // of *[]byte

// newMem returns an all-zero memory of size bytes, from the pool when it
// holds one of that size.
func newMem(size int) []byte {
	if p, _ := memPool.Get().(*[]byte); p != nil && len(*p) == size {
		return *p
	}
	return make([]byte, size)
}

// Release zeroes the CPU's memory and returns it to the pool New draws
// from. Only the pages that can differ from all-zero are cleared: those
// stored to since the last restore, those the restored checkpoint holds
// past reset, and the data segment. The CPU is unusable afterwards: Run,
// RunTo, Restore and Release panic, and Mem returns nil. A CPU whose
// memory was written through Mem must not be released.
func (c *CPU) Release() {
	c.mustHoldMem()
	c.markChanged(nil, 0)
	for w, word := range c.dirty {
		for ; word != 0; word &= word - 1 {
			clear(c.page(uint32(w<<6 + bits.TrailingZeros64(word))))
		}
	}
	clear(c.mem[isa.DataBase:min(isa.DataBase+len(c.prog.Data), len(c.mem))])
	mem := c.mem
	c.mem, c.base = nil, nil
	memPool.Put(&mem)
}

func (c *CPU) mustHoldMem() {
	if c.mem == nil {
		panic("cpu: use of a released CPU")
	}
}

// Reset returns the CPU to the program's reset state, as New left it,
// rewriting only the memory pages that may differ from the reset image.
// The injector is kept.
func (c *CPU) Reset() { c.Restore(nil, 0) }

// Restore sets the CPU to checkpoint k of rec, a recording of the same
// program (nil rec: the reset state). Only the pages stored to since the
// last restore, and those the recording versioned between that restore's
// checkpoint and k, are rewritten. The injector is kept.
func (c *CPU) Restore(rec *Recording, k int) {
	c.mustHoldMem()
	if rec != nil && rec.prog != c.prog {
		panic("cpu: Restore from a recording of another program")
	}
	c.markChanged(rec, k)
	for w, word := range c.dirty {
		for ; word != 0; word &= word - 1 {
			p := uint32(w<<6 + bits.TrailingZeros64(word))
			var src []byte
			if rec != nil {
				src = rec.pageAt(p, k)
			}
			c.loadPage(p, src)
		}
	}
	clear(c.dirty)
	if rec == nil {
		c.state = resetState(c.prog)
		c.output = c.output[:0]
	} else {
		c.state = rec.cps[k].state
		c.output = append(c.output[:0], rec.console[:rec.cps[k].outLen]...)
	}
	c.base, c.baseK = rec, k
}

// Matches reports whether the CPU's full state equals checkpoint k of
// rec: pc, registers, scoreboard and divider times, cycle, cache tags,
// the Result counters other than Injections, the console, and memory.
// rec must be the recording the CPU was last restored from (or the CPU
// restored to its reset state) and k at or after that checkpoint. Only
// pages stored to since the restore, by this run or by the golden run,
// can differ, so only those are compared.
func (c *CPU) Matches(rec *Recording, k int) bool {
	cp := &rec.cps[k]
	s := c.state
	s.res.Injections = cp.res.Injections
	if s != cp.state || !bytes.Equal(c.output, rec.console[:cp.outLen]) {
		return false
	}
	copy(c.scratch, c.dirty)
	rec.markStored(c.scratch, c.baseK, k)
	for w, word := range c.scratch {
		for ; word != 0; word &= word - 1 {
			p := uint32(w<<6 + bits.TrailingZeros64(word))
			if !c.pageEqual(p, rec.pageAt(p, k)) {
				return false
			}
		}
	}
	return true
}
