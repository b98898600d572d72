package kern

import (
	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/vfs"
	"aurora/internal/vm"
)

// VnodeFile is the file implementation over the Aurora file system. The
// vnode (the slsfs object, identified by OID) is shared by every open of
// the same path; the File (open-file description) layered above carries the
// offset. This two-level structure is exactly the sharing hierarchy of
// §5.1: fork shares the description and therefore the offset, while an
// independent open shares only the vnode.
type VnodeFile struct {
	k   *Kernel
	h   vfs.File     // the open slsfs handle (holds a hidden ref)
	OID objstore.OID // the vnode identity / inode number
}

var _ FileImpl = (*VnodeFile)(nil)

// Kind implements FileImpl.
func (v *VnodeFile) Kind() ObjKind { return KindVnode }

// Read implements FileImpl: reads at the shared offset and advances it.
func (v *VnodeFile) Read(f *File, p []byte) (int, error) {
	n, err := v.h.ReadAt(p, f.offset)
	f.setOffset(v.k, f.offset+int64(n))
	return n, err
}

// Write implements FileImpl: appends with O_APPEND, else writes at the
// shared offset and advances it.
func (v *VnodeFile) Write(f *File, p []byte) (int, error) {
	if f.flags&OAppend != 0 {
		n, err := v.h.Append(p)
		f.setOffset(v.k, v.h.Size())
		return n, err
	}
	n, err := v.h.WriteAt(p, f.offset)
	f.setOffset(v.k, f.offset+int64(n))
	return n, err
}

// CloseLast implements FileImpl.
func (v *VnodeFile) CloseLast() { v.h.Close() } //nolint:errcheck

// Size returns the file size.
func (v *VnodeFile) Size() int64 { return v.h.Size() }

// Open opens path on the Aurora file system, creating it if create is set.
func (p *Proc) Open(path string, flags int, create bool) (int, error) {
	var fd int
	err := p.k.syscall(func() error {
		var (
			h   vfs.File
			err error
		)
		if create && !p.k.FS.Exists(path) {
			h, err = p.k.FS.Create(path)
		} else {
			h, err = p.k.FS.Open(path)
		}
		if err != nil {
			return err
		}
		oid, _ := p.k.FS.OIDOf(path)
		v := &VnodeFile{k: p.k, h: h, OID: oid}
		fd = p.FDs.Install(NewFile(v, flags))
		return nil
	})
	return fd, err
}

// Unlink removes a path; open descriptors keep the object alive (the
// anonymous-file case).
func (p *Proc) Unlink(path string) error {
	return p.k.syscall(func() error { return p.k.FS.Remove(path) })
}

// Fsync on a descriptor: a no-op for vnodes under checkpoint consistency,
// costing the syscall alone; an error for non-vnodes.
func (p *Proc) Fsync(fd int) error {
	return p.k.syscall(func() error {
		_, err := behindFD[*VnodeFile](p, fd, ErrInvalid)
		return err
	})
}

// vnodePager fills VM pages from a file, implementing mmap'd files. Page
// index 0 corresponds to file offset 0; entry offsets handle the rest.
type vnodePager struct {
	h   vfs.File
	oid objstore.OID
}

func (vp *vnodePager) PageIn(pg int64, page *mem.Page) error {
	_, err := vp.h.ReadAt(page.Data, pg*vm.PageSize)
	return err
}

func (vp *vnodePager) BackingOID() uint64 { return uint64(vp.oid) }

// MmapFile maps a file: shared mappings write through to the vnode object;
// private mappings interpose an anonymous shadow so the file stays clean.
func (p *Proc) MmapFile(fd int, off, length int64, prot vm.Prot, shared bool) (uint64, error) {
	var va uint64
	err := p.k.syscall(func() error {
		v, err := behindFD[*VnodeFile](p, fd, ErrInvalid)
		if err != nil {
			return err
		}
		// Keep the vnode alive for the mapping's lifetime.
		p.k.FS.AddHiddenRef(v.OID)
		fileObj := p.k.VM.NewPagedObject(vm.Vnode, v.Size(), &vnodePager{h: v.h, oid: v.OID})
		obj := fileObj
		if !shared {
			obj = p.k.VM.Shadow(fileObj)
			fileObj.Deref()
		}
		va, err = p.Mem.Map(obj, off, length, prot, shared)
		return err
	})
	return va, err
}
