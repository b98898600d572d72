package kern

import (
	"encoding/binary"
	"fmt"

	"aurora/internal/mem"
	"aurora/internal/vm"
)

// Device files and special mappings (§5.3): a whitelist of devices that
// persistent processes may map — the HPET timer page (read-only) — plus the
// vDSO, which is *not* checkpointed by content: on restore the current
// platform's vDSO is injected so the application resumes even when the
// kernel's optimized entry points changed.

// Whitelisted device names.
const (
	DevHPET = "hpet"
	DevNull = "null"
)

// deviceWhitelist enumerates the devices persistent processes may use.
var deviceWhitelist = map[string]bool{
	DevHPET: true,
	DevNull: true,
}

// DeviceWhitelisted reports whether a device is supported under
// persistence.
func DeviceWhitelisted(name string) bool { return deviceWhitelist[name] }

// devicePager fills device pages. The HPET page holds a counter stamped at
// page-in time; null reads zeros.
type devicePager struct {
	k    *Kernel
	name string
}

func (dp *devicePager) PageIn(pg int64, p *mem.Page) error {
	switch dp.name {
	case DevHPET:
		binary.LittleEndian.PutUint64(p.Data, uint64(dp.k.Clk.Now()))
		return nil
	case DevNull:
		return nil
	default:
		return fmt.Errorf("%w: device %q", ErrInvalid, dp.name)
	}
}

func (dp *devicePager) BackingOID() uint64 { return 0 }

// DeviceName identifies the device behind the pager (checkpoint path).
func (dp *devicePager) DeviceName() string { return dp.name }

// Device is an open device node. Its record is its name, so its generation
// never moves.
type Device struct {
	gen
	k    *Kernel
	name string
}

var _ FileImpl = (*Device)(nil)

func (d *Device) Kind() ObjKind { return KindDevice }

// Name returns the device name (checkpoint path).
func (d *Device) Name() string { return d.name }

func (d *Device) Read(f *File, p []byte) (int, error) {
	switch d.name {
	case DevNull:
		return 0, nil
	case DevHPET:
		if len(p) < 8 {
			return 0, ErrInvalid
		}
		binary.LittleEndian.PutUint64(p, uint64(d.k.Clk.Now()))
		return 8, nil
	}
	return 0, ErrInvalid
}

func (d *Device) Write(f *File, p []byte) (int, error) {
	if d.name == DevNull {
		return len(p), nil
	}
	return 0, ErrInvalid
}

func (d *Device) CloseLast() {}

// OpenDevice opens a whitelisted device node.
func (p *Proc) OpenDevice(name string) (int, error) {
	if !DeviceWhitelisted(name) {
		return -1, fmt.Errorf("%w: device %q not whitelisted", ErrInvalid, name)
	}
	var fd int
	err := p.k.syscall(func() error {
		fd = p.FDs.Install(NewFile(&Device{k: p.k, name: name}, ORead|OWrite))
		return nil
	})
	return fd, err
}

// MapDevice maps a whitelisted device read-only (the HPET pattern).
func (p *Proc) MapDevice(name string) (uint64, error) {
	if !DeviceWhitelisted(name) {
		return 0, fmt.Errorf("%w: device %q not whitelisted", ErrInvalid, name)
	}
	var va uint64
	err := p.k.syscall(func() error {
		obj := p.k.VM.NewPagedObject(vm.Device, vm.PageSize, &devicePager{k: p.k, name: name})
		var err error
		va, err = p.Mem.Map(obj, 0, vm.PageSize, vm.ProtRead, true)
		return err
	})
	return va, err
}

// vdsoPager fills the vDSO page with the kernel's version string — enough
// to verify that restores inject the *current* kernel's vDSO.
type vdsoPager struct{ k *Kernel }

func (vp *vdsoPager) PageIn(pg int64, p *mem.Page) error {
	copy(p.Data, vp.k.VDSOVersion)
	return nil
}

func (vp *vdsoPager) BackingOID() uint64 { return 0 }

// VDSOBase is the fixed address the vDSO maps at.
const VDSOBase = 0x7FFF_FFFF_0000

// MapVDSO injects the current kernel's vDSO page at the fixed address.
// Restore calls this instead of restoring the checkpointed content.
func (p *Proc) MapVDSO() error {
	return p.k.syscall(func() error { return p.mapVDSOLocked() })
}

// mapVDSOLocked requires the BKL (or a quiesced kernel).
func (p *Proc) mapVDSOLocked() error {
	obj := p.k.VM.NewPagedObject(vm.Device, vm.PageSize, &vdsoPager{k: p.k})
	return p.Mem.MapAt(VDSOBase, obj, 0, vm.PageSize, vm.ProtRead|vm.ProtExec, true)
}
