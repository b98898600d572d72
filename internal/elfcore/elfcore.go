// Package elfcore writes ELF64 core dumps of simulated processes — the
// sls dump command: "any checkpoint or running state can be extracted as an
// ELF coredump" (§3). The dump carries a PT_NOTE segment with process and
// per-thread register notes and one PT_LOAD segment per mapped region, so
// standard tooling conventions apply.
package elfcore

import (
	"encoding/binary"
	"io"

	"aurora/internal/kern"
	"aurora/internal/vm"
)

// ELF constants (subset).
const (
	etCore   = 4
	emX86_64 = 62
	ptLoad   = 1
	ptNote   = 4

	ehSize = 64
	phSize = 56

	ntPrStatus = 1
	ntPrPsInfo = 3
)

// Write dumps p as an ELF64 core file.
func Write(w io.Writer, p *kern.Proc) (int64, error) {
	entries := p.Mem.Entries()
	note := buildNotes(p)

	phnum := 1 + len(entries) // PT_NOTE + loads
	offset := int64(ehSize + phnum*phSize)

	var out []byte
	out = appendEhdr(out, phnum)

	// Program headers: NOTE first.
	noteOff := offset
	out = appendPhdr(out, ptNote, 0, noteOff, int64(len(note)), 0)
	offset += int64(len(note))
	offset = align(offset, 4096)

	type load struct {
		e   *vm.Entry
		off int64
	}
	loads := make([]load, 0, len(entries))
	for _, e := range entries {
		sz := int64(e.End - e.Start)
		out = appendPhdr(out, ptLoad, e.Start, offset, sz, uint32(e.Prot))
		loads = append(loads, load{e: e, off: offset})
		offset = align(offset+sz, 4096)
	}

	out = append(out, note...)
	if len(loads) > 0 {
		if pad := noteOff + int64(len(note)); pad < loads[0].off {
			out = append(out, make([]byte, loads[0].off-pad)...)
		}
	}

	var total int64
	n, err := w.Write(out)
	total += int64(n)
	if err != nil {
		return total, err
	}

	// Memory contents, read through the chain and pagers (zero for true
	// holes) — a dump of a lazily-restored process still carries its
	// checkpointed memory.
	buf := make([]byte, vm.PageSize)
	for i, l := range loads {
		sz := int64(l.e.End - l.e.Start)
		for off := int64(0); off < sz; off += vm.PageSize {
			pg := l.e.Off/vm.PageSize + off/vm.PageSize
			frame, err := l.e.Obj.FindPage(pg)
			if err != nil {
				return total, err
			}
			if frame != nil {
				copy(buf, frame.Data)
			} else {
				for j := range buf {
					buf[j] = 0
				}
			}
			n, err := w.Write(buf)
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
		// Pad to the next load's offset.
		if i+1 < len(loads) {
			gap := loads[i+1].off - (l.off + sz)
			if gap > 0 {
				n, err := w.Write(make([]byte, gap))
				total += int64(n)
				if err != nil {
					return total, err
				}
			}
		}
	}
	return total, nil
}

func align(v, a int64) int64 { return (v + a - 1) &^ (a - 1) }

func appendEhdr(out []byte, phnum int) []byte {
	e := make([]byte, ehSize)
	copy(e, "\x7fELF")
	e[4] = 2 // ELFCLASS64
	e[5] = 1 // little endian
	e[6] = 1 // EV_CURRENT
	binary.LittleEndian.PutUint16(e[16:], etCore)
	binary.LittleEndian.PutUint16(e[18:], emX86_64)
	binary.LittleEndian.PutUint32(e[20:], 1)
	binary.LittleEndian.PutUint64(e[32:], ehSize) // phoff
	binary.LittleEndian.PutUint16(e[52:], ehSize)
	binary.LittleEndian.PutUint16(e[54:], phSize)
	binary.LittleEndian.PutUint16(e[56:], uint16(phnum))
	return append(out, e...)
}

func appendPhdr(out []byte, typ uint32, vaddr uint64, off, size int64, flags uint32) []byte {
	p := make([]byte, phSize)
	binary.LittleEndian.PutUint32(p[0:], typ)
	binary.LittleEndian.PutUint32(p[4:], flags)
	binary.LittleEndian.PutUint64(p[8:], uint64(off))
	binary.LittleEndian.PutUint64(p[16:], vaddr)
	binary.LittleEndian.PutUint64(p[24:], vaddr)
	binary.LittleEndian.PutUint64(p[32:], uint64(size))
	binary.LittleEndian.PutUint64(p[40:], uint64(size))
	binary.LittleEndian.PutUint64(p[48:], vm.PageSize)
	return append(out, p...)
}

// buildNotes emits NT_PRPSINFO for the process and NT_PRSTATUS per thread.
func buildNotes(p *kern.Proc) []byte {
	var out []byte
	psinfo := make([]byte, 136)
	binary.LittleEndian.PutUint32(psinfo[24:], uint32(p.LocalPID))
	binary.LittleEndian.PutUint32(psinfo[32:], uint32(p.PGID))
	binary.LittleEndian.PutUint32(psinfo[36:], uint32(p.SID))
	copy(psinfo[40:], p.Name)
	out = appendNote(out, "CORE", ntPrPsInfo, psinfo)

	for _, t := range p.Threads {
		st := make([]byte, 336)
		binary.LittleEndian.PutUint32(st[32:], uint32(t.LocalTID))
		// User registers in the pr_reg area (x86-64 layout offsets are
		// approximated; this is a simulated machine).
		regs := st[112:]
		for i, r := range t.CPU.GPR {
			binary.LittleEndian.PutUint64(regs[i*8:], r)
		}
		binary.LittleEndian.PutUint64(regs[16*8:], t.CPU.RIP)
		binary.LittleEndian.PutUint64(regs[19*8:], t.CPU.RSP)
		binary.LittleEndian.PutUint64(regs[18*8:], t.CPU.RFLAGS)
		out = appendNote(out, "CORE", ntPrStatus, st)
	}
	return out
}

func appendNote(out []byte, name string, typ uint32, desc []byte) []byte {
	n := make([]byte, 12)
	binary.LittleEndian.PutUint32(n[0:], uint32(len(name)+1))
	binary.LittleEndian.PutUint32(n[4:], uint32(len(desc)))
	binary.LittleEndian.PutUint32(n[8:], typ)
	out = append(out, n...)
	out = append(out, name...)
	out = append(out, 0)
	for len(out)%4 != 0 {
		out = append(out, 0)
	}
	out = append(out, desc...)
	for len(out)%4 != 0 {
		out = append(out, 0)
	}
	return out
}
