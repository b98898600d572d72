package kern

import (
	"fmt"
	"sort"

	"aurora/internal/vm"
)

// Shared memory: POSIX (shm_open) and System V (shmget) segments. A segment
// is a descriptor-reachable handle on a VM object; because the object can be
// replaced by system shadowing, the segment is the backmap of §6 — it
// implements vm.BackRef so future mappings use the latest shadow.

// ShmSegment is one shared-memory segment.
type ShmSegment struct {
	k    *Kernel
	ID   int64  // SysV shmid / internal id
	Key  int64  // SysV key (0 for POSIX)
	Name string // POSIX name ("" for SysV)
	Size int64
	obj  *vm.Object
	refs int32
	SysV bool
}

var _ vm.BackRef = (*ShmSegment)(nil)

// Object implements vm.BackRef.
func (s *ShmSegment) Object() *vm.Object { return s.obj }

// SetObject implements vm.BackRef (system shadowing updates the segment).
func (s *ShmSegment) SetObject(o *vm.Object) { s.obj = o }

// shmFile is the FileImpl for a POSIX shm descriptor.
type shmFile struct{ seg *ShmSegment }

var _ FileImpl = (*shmFile)(nil)

func (s *shmFile) Kind() ObjKind { return KindShm }

func (s *shmFile) Read(f *File, p []byte) (int, error) { return 0, ErrInvalid }

func (s *shmFile) Write(f *File, p []byte) (int, error) { return 0, ErrInvalid }

func (s *shmFile) CloseLast() { s.seg.deref() }

func (s *ShmSegment) ref() { s.refs++ }

func (s *ShmSegment) deref() {
	s.refs--
	if s.refs <= 0 {
		k := s.k
		k.mu.Lock()
		if s.SysV {
			delete(k.sysv, s.Key)
		} else {
			delete(k.shmNames, s.Name)
		}
		k.mu.Unlock()
		if s.obj != nil {
			s.obj.Deref()
			s.obj = nil
		}
	}
}

// Segment returns the underlying segment of a shm descriptor.
func (p *Proc) ShmSegmentOf(fd int) (*ShmSegment, error) {
	return behindFD[*ShmSegment](p, fd, ErrInvalid)
}

// ShmOpen opens (creating if needed) a POSIX shared-memory object and
// returns a descriptor for it.
func (p *Proc) ShmOpen(name string, size int64) (int, error) {
	var fd int
	err := p.k.syscall(func() error {
		k := p.k
		k.mu.Lock()
		seg, ok := k.shmNames[name]
		if !ok {
			seg = &ShmSegment{
				k:    k,
				ID:   k.nextShmID,
				Name: name,
				Size: size,
				obj:  k.VM.NewObject(vm.Anonymous, size),
			}
			k.nextShmID++
			k.shmNames[name] = seg
		}
		seg.ref()
		k.mu.Unlock()
		fd = p.FDs.Install(NewFile(&shmFile{seg: seg}, ORead|OWrite))
		return nil
	})
	return fd, err
}

// ShmGet finds or creates a System V segment by key. Unlike POSIX shm the
// handle is the global namespace itself — which is what makes SysV more
// expensive to checkpoint (Table 4: the global namespace scan).
func (p *Proc) ShmGet(key int64, size int64) (int64, error) {
	var id int64
	err := p.k.syscall(func() error {
		k := p.k
		k.mu.Lock()
		seg, ok := k.sysv[key]
		if !ok {
			seg = &ShmSegment{
				k:    k,
				ID:   k.nextShmID,
				Key:  key,
				Size: size,
				SysV: true,
				obj:  k.VM.NewObject(vm.Anonymous, size),
			}
			k.nextShmID++
			k.sysv[key] = seg
			seg.ref() // SysV segments persist until explicitly removed
		}
		id = seg.ID
		k.mu.Unlock()
		return nil
	})
	return id, err
}

// ShmAt maps a SysV segment into the address space.
func (p *Proc) ShmAt(id int64, prot vm.Prot) (uint64, error) {
	var va uint64
	err := p.k.syscall(func() error {
		seg := p.k.sysvByID(id)
		if seg == nil {
			return fmt.Errorf("%w: shmid %d", ErrInvalid, id)
		}
		seg.obj.Ref()
		var err error
		va, err = p.Mem.Map(seg.obj, 0, seg.Size, prot, true)
		return err
	})
	return va, err
}

// ShmRm removes a SysV segment from the namespace (IPC_RMID).
func (p *Proc) ShmRm(id int64) error {
	return p.k.syscall(func() error {
		seg := p.k.sysvByID(id)
		if seg == nil {
			return fmt.Errorf("%w: shmid %d", ErrInvalid, id)
		}
		seg.deref()
		return nil
	})
}

// MmapShm maps a POSIX shm descriptor.
func (p *Proc) MmapShm(fd int, prot vm.Prot) (uint64, error) {
	var va uint64
	err := p.k.syscall(func() error {
		seg, err := p.ShmSegmentOf(fd)
		if err != nil {
			return err
		}
		seg.obj.Ref()
		va, err = p.Mem.Map(seg.obj, 0, seg.Size, prot, true)
		return err
	})
	return va, err
}

// sysvByID scans the SysV namespace by segment id.
func (k *Kernel) sysvByID(id int64) *ShmSegment {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, seg := range k.sysv {
		if seg.ID == id {
			return seg
		}
	}
	return nil
}

// ShmSegments lists all live segments (checkpoint path: these are the
// backrefs handed to system shadowing), in ascending segment-ID order so
// the checkpoint write stream is deterministic across runs. The SysV
// namespace scan cost is charged here, matching Table 4's SysV-vs-POSIX
// asymmetry.
func (k *Kernel) ShmSegments() []*ShmSegment {
	k.mu.Lock()
	defer k.mu.Unlock()
	var out []*ShmSegment
	for _, seg := range k.shmNames {
		out = append(out, seg)
	}
	if len(k.sysv) > 0 {
		k.Clk.Advance(k.Costs.SysVNamespaceScan)
		for _, seg := range k.sysv {
			out = append(out, seg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
