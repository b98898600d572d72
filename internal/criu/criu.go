// Package criu implements the paper's comparison baseline: a
// process-centric checkpointer in the style of Linux CRIU (Tables 1 and 7).
//
// Unlike Aurora, it (a) stops the application for the entire duration of
// state collection *and* memory copy, because it has no system shadowing to
// overlap flushing with execution; (b) queries each kernel object from
// user space and infers sharing relationships by scanning and deduplicating,
// instead of representing them directly; and (c) copies every resident page
// out of the stopped process and writes the image serially.
package criu

import (
	"fmt"
	"time"

	"aurora/internal/clock"
	"aurora/internal/kern"
	"aurora/internal/mem"
	"aurora/internal/rec"
	"aurora/internal/vm"
)

// ImageDev is where the checkpoint image is written (a plain device): a
// write is submitted and then waited for.
type ImageDev interface {
	SubmitWrite(p []byte, off int64) (time.Duration, error)
	WaitUntil(t time.Duration)
	ReadAt(p []byte, off int64) (int, error)
	Size() int64
}

// Stats breaks down one checkpoint, matching Table 1's rows.
type Stats struct {
	OSStateTime   time.Duration // "OS State Copy"
	MemoryTime    time.Duration // "Memory Copy"
	TotalStopTime time.Duration // "Total Stop Time"
	IOWriteTime   time.Duration // "IO Write"
	ImageBytes    int64
	Objects       int
	Pages         int64
}

// Checkpointer is a CRIU-like engine over the simulated kernel.
type Checkpointer struct {
	K     *kern.Kernel
	Dev   ImageDev
	Clk   clock.Clock
	Costs *clock.Costs
}

// New returns a checkpointer writing images to dev.
func New(k *kern.Kernel, dev ImageDev) *Checkpointer {
	return &Checkpointer{K: k, Dev: dev, Clk: k.Clk, Costs: k.Costs}
}

// Checkpoint dumps the process tree rooted at the given processes. The
// application is stopped for the whole collection; the image write happens
// after resume (CRIU's dump-to-disk phase, reported separately).
func (c *Checkpointer) Checkpoint(procs []*kern.Proc) (Stats, error) {
	var st Stats
	total := clock.StartStopwatch(c.Clk)
	c.K.Quiesce()

	// Phase 1: OS state. Parasite-style setup plus a per-object query
	// through the syscall/procfs surface, then cross-process dedup scans
	// to discover what is shared.
	osSW := clock.StartStopwatch(c.Clk)
	c.Clk.Advance(c.Costs.CRIUFixed)
	img := rec.NewEncoder()
	img.U32(uint32(len(procs)))
	refs := make(map[*kern.File]int) // descriptors found per description
	for _, p := range procs {
		img.Str(p.Name)
		img.U32(uint32(p.LocalPID))
		img.U32(uint32(p.PGID))
		img.U32(uint32(p.SID))
		st.Objects++
		c.Clk.Advance(c.Costs.CRIUPerObject) // /proc/<pid>/* round trips

		var slots []int
		p.FDs.Each(func(fd int, f *kern.File) {
			// Query each descriptor individually from user space.
			c.Clk.Advance(c.Costs.CRIUPerObject)
			st.Objects++
			refs[f]++
			slots = append(slots, fd)
		})
		img.U32(uint32(len(slots)))
		for _, fd := range slots {
			img.U32(uint32(fd))
		}
		// Address space layout from /proc/<pid>/maps.
		for range p.Mem.Entries() {
			c.Clk.Advance(c.Costs.CRIUPerObject / 4)
			st.Objects++
		}
	}
	// Dedup pass: for every shared description, compare the references
	// found in different processes to reconstruct the sharing (work
	// Aurora never does — the object model represents sharing directly).
	for f, n := range refs {
		if n > 1 {
			c.Clk.Advance(time.Duration(n) * c.Costs.CRIUPerObject / 2)
		}
		img.U16(uint16(f.Impl.Kind()))
		img.I64(f.Offset())
	}
	st.OSStateTime = osSW.Elapsed()

	// Phase 2: memory copy, page by page, while the application is
	// stopped — no COW snapshot to hide behind.
	memSW := clock.StartStopwatch(c.Clk)
	for _, p := range procs {
		for _, e := range p.Mem.Entries() {
			pages := e.Pages()
			for pg := int64(0); pg < pages; pg++ {
				frame, _ := e.Obj.Lookup(e.Off/mem.PageSize + pg)
				if frame == nil {
					continue
				}
				c.Clk.Advance(c.Costs.CRIUPageCopy)
				img.U64(e.Start + uint64(pg)*vm.PageSize)
				img.Bytes(frame.Data)
				st.Pages++
			}
		}
	}
	st.MemoryTime = memSW.Elapsed()

	c.K.Resume()
	st.TotalStopTime = total.Elapsed()

	// Phase 3: serial image write (after resume; CRIU reports it
	// separately and does not even fsync).
	body := img.Seal()
	st.ImageBytes = int64(len(body))
	ioSW := clock.StartStopwatch(c.Clk)
	if st.ImageBytes > c.Dev.Size() {
		return st, fmt.Errorf("criu: image %d bytes exceeds device", st.ImageBytes)
	}
	const chunk = 1 << 20
	for off := int64(0); off < st.ImageBytes; off += chunk {
		end := off + chunk
		if end > st.ImageBytes {
			end = st.ImageBytes
		}
		done, err := c.Dev.SubmitWrite(body[off:end], off)
		if err != nil {
			return st, err
		}
		c.Dev.WaitUntil(done)
	}
	// The serial single-stream write path runs at CRIU's image-write
	// bandwidth, not the device's striped aggregate.
	slower := clock.XferTime(0, c.Costs.CRIUWriteBps, st.ImageBytes)
	if elapsed := ioSW.Elapsed(); slower > elapsed {
		c.Clk.Advance(slower - elapsed)
	}
	st.IOWriteTime = ioSW.Elapsed()
	return st, nil
}
