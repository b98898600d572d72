package kern

import (
	"fmt"

	"aurora/internal/vm"
)

// CPUState is the per-thread register file Aurora captures and restores:
// instruction/stack pointers, general-purpose registers, flags, and the
// FPU/vector save area (which on real hardware may require an IPI to flush
// out of lazy state).
type CPUState struct {
	RIP    uint64
	RSP    uint64
	RBP    uint64
	RFLAGS uint64
	GPR    [16]uint64
	FPU    [512]byte
}

// Thread is one kernel thread.
type Thread struct {
	Proc      *Proc
	LocalTID  PID // application-visible, stable across restores
	GlobalTID PID // kernel allocation, fresh after restore
	CPU       CPUState
	SigMask   uint64
	Priority  int
	Name      string
}

// Proc is a process: threads, an address space, a descriptor table, and the
// process-tree relationships (parent/children, process group, session) that
// job control and signal routing depend on.
type Proc struct {
	k *Kernel

	LocalPID  PID // application-visible, stable across restores
	GlobalPID PID // kernel allocation, fresh after restore
	Name      string

	// GroupID is the consistency group this process belongs to; 0 means
	// not attached to the SLS.
	GroupID uint64
	// Ephemeral processes belong to a group but are not persisted; after
	// a restore the parent receives SIGCHLD for them (§3).
	Ephemeral bool

	parent   *Proc
	children []*Proc
	PGID     PID // process group (local id space)
	SID      PID // session (local id space)

	Threads []*Thread
	Mem     *vm.Map
	FDs     *FDTable

	exited     bool
	exitStatus int
	reaped     bool

	pendingSigs []Signal
	aios        []*AIORequest

	// umtx is a tiny futex-like wait channel keyed by TID, standing in
	// for pthread synchronization that depends on stable TIDs.
	umtxWaits map[PID]int
}

// NewProc creates a root process (init of a group).
func (k *Kernel) NewProc(name string) *Proc {
	p := &Proc{
		k:         k,
		Name:      name,
		GlobalPID: k.allocPID(),
		Mem:       k.VM.NewMap(),
		FDs:       NewFDTable(),
		umtxWaits: make(map[PID]int),
	}
	p.LocalPID = p.GlobalPID // identical until a restore re-virtualizes
	p.PGID = p.LocalPID
	p.SID = p.LocalPID
	t := &Thread{Proc: p, GlobalTID: k.allocTID(), Name: "main"}
	t.LocalTID = t.GlobalTID
	p.Threads = []*Thread{t}
	k.register(p)
	k.Clk.Advance(k.Costs.ProcSpawnFloor)
	return p
}

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// MainThread returns the first thread.
func (p *Proc) MainThread() *Thread { return p.Threads[0] }

// SpawnThread adds a thread to the process.
func (p *Proc) SpawnThread(name string) *Thread {
	var t *Thread
	p.k.syscall(func() error { //nolint:errcheck // cannot fail
		t = &Thread{Proc: p, GlobalTID: p.k.allocTID(), Name: name}
		t.LocalTID = t.GlobalTID
		p.Threads = append(p.Threads, t)
		return nil
	})
	return t
}

// Fork clones the process: COW address space, shared open-file descriptions
// (offsets travel with the description, not the descriptor slot), a single
// thread, inherited process group and session.
func (p *Proc) Fork() *Proc {
	var child *Proc
	p.k.syscall(func() error { //nolint:errcheck // cannot fail
		child = &Proc{
			k:         p.k,
			Name:      p.Name,
			GlobalPID: p.k.allocPID(),
			GroupID:   p.GroupID,
			parent:    p,
			PGID:      p.PGID,
			SID:       p.SID,
			Mem:       p.Mem.Fork(),
			FDs:       p.FDs.Clone(),
			umtxWaits: make(map[PID]int),
		}
		child.LocalPID = child.GlobalPID
		t := &Thread{Proc: child, GlobalTID: p.k.allocTID(), Name: "main"}
		t.LocalTID = t.GlobalTID
		t.CPU = p.MainThread().CPU
		child.Threads = []*Thread{t}
		p.children = append(p.children, child)
		p.k.register(child)
		// Fork charges per-PTE COW marking, modeled in Map.Fork via
		// replaceEntryObject, plus the spawn floor.
		p.k.Clk.Advance(p.k.Costs.ProcSpawnFloor)
		return nil
	})
	return child
}

// Exit terminates the process, closing descriptors, releasing memory, and
// signalling the parent with SIGCHLD.
func (p *Proc) Exit(status int) {
	p.k.syscall(func() error { //nolint:errcheck // cannot fail
		if p.exited {
			return nil
		}
		p.exited = true
		p.exitStatus = status
		p.FDs.CloseAll()
		p.Mem.Destroy()
		// Orphan the children to this process's parent (or leave them
		// parentless — init semantics are out of scope).
		for _, c := range p.children {
			c.parent = p.parent
		}
		if p.parent != nil && !p.parent.exited {
			p.parent.pendingSigs = append(p.parent.pendingSigs, SIGCHLD)
		}
		p.k.Gate.Broadcast() // wake waiters
		return nil
	})
}

// Exited reports whether the process has terminated.
func (p *Proc) Exited() bool { return p.exited }

// Wait blocks until some child exits, reaping it and returning its local
// PID and exit status.
func (p *Proc) Wait() (PID, int, error) {
	var pid PID
	var status int
	err := p.k.syscall(func() error {
		find := func() *Proc {
			for _, c := range p.children {
				if c.exited && !c.reaped {
					return c
				}
			}
			return nil
		}
		if len(p.children) == 0 {
			return ErrNoChildren
		}
		if !p.k.Gate.Sleep(func() bool { return find() != nil }) {
			return errRestart
		}
		c := find()
		c.reaped = true
		pid = c.LocalPID
		status = c.exitStatus
		p.k.unregister(c)
		// Drop the reaped child from the children list.
		for i, cc := range p.children {
			if cc == c {
				p.children = append(p.children[:i], p.children[i+1:]...)
				break
			}
		}
		return nil
	})
	return pid, status, err
}

// Children returns a snapshot of live children.
func (p *Proc) Children() []*Proc {
	out := make([]*Proc, len(p.children))
	copy(out, p.children)
	return out
}

// Parent returns the parent process, if any.
func (p *Proc) Parent() *Proc { return p.parent }

// Setsid makes the process a session and group leader.
func (p *Proc) Setsid() PID {
	p.k.syscall(func() error { //nolint:errcheck // cannot fail
		p.SID = p.LocalPID
		p.PGID = p.LocalPID
		return nil
	})
	return p.SID
}

// Setpgid moves the process into a process group (local id space).
func (p *Proc) Setpgid(pgid PID) {
	p.k.syscall(func() error { //nolint:errcheck // cannot fail
		if pgid == 0 {
			pgid = p.LocalPID
		}
		p.PGID = pgid
		return nil
	})
}

// Kill routes a signal by local PID within the sender's group; a negative
// pid signals the whole process group, as POSIX kill(2).
func (p *Proc) Kill(pid PID, sig Signal) error {
	return p.k.syscall(func() error {
		if pid < 0 {
			pgid := -pid
			n := 0
			for _, t := range p.k.Procs(p.GroupID) {
				if t.PGID == pgid && !t.exited {
					t.pendingSigs = append(t.pendingSigs, sig)
					n++
				}
			}
			if n == 0 {
				return fmt.Errorf("%w: pgid %d", ErrNoProc, pgid)
			}
			p.k.Gate.Broadcast()
			return nil
		}
		t, ok := p.k.ProcByLocal(p.GroupID, pid)
		if !ok || t.exited {
			return fmt.Errorf("%w: pid %d", ErrNoProc, pid)
		}
		t.pendingSigs = append(t.pendingSigs, sig)
		p.k.Gate.Broadcast()
		return nil
	})
}

// PollSignal dequeues one pending signal, or returns 0.
func (p *Proc) PollSignal() Signal {
	var sig Signal
	p.k.syscall(func() error { //nolint:errcheck // cannot fail
		if len(p.pendingSigs) > 0 {
			sig = p.pendingSigs[0]
			p.pendingSigs = p.pendingSigs[1:]
		}
		return nil
	})
	return sig
}

// QueueSignal enqueues a signal directly (used by the orchestrator for
// SIGCHLD on ephemeral children and SIGRESTORE after restores). Caller must
// own the quiesced kernel or run from a syscall.
func (p *Proc) QueueSignal(sig Signal) {
	p.pendingSigs = append(p.pendingSigs, sig)
}

// PendingSignals returns a copy of the queue (checkpoint path).
func (p *Proc) PendingSignals() []Signal {
	out := make([]Signal, len(p.pendingSigs))
	copy(out, p.pendingSigs)
	return out
}

// Mmap maps fresh anonymous memory.
func (p *Proc) Mmap(length int64, prot vm.Prot, shared bool) (uint64, error) {
	var va uint64
	err := p.k.syscall(func() error {
		obj := p.k.VM.NewObject(vm.Anonymous, length)
		var err error
		va, err = p.Mem.Map(obj, 0, length, prot, shared)
		return err
	})
	return va, err
}

// Munmap removes the mapping starting at va.
func (p *Proc) Munmap(va uint64) error {
	return p.k.syscall(func() error { return p.Mem.Unmap(va) })
}

// WriteMem writes through the simulated MMU (userspace stores). It passes
// the gate so quiesced processes cannot mutate memory mid-checkpoint.
func (p *Proc) WriteMem(va uint64, data []byte) error {
	p.k.Gate.Enter()
	defer p.k.Gate.Exit()
	return p.Mem.Write(va, data)
}

// ReadMem reads through the simulated MMU (userspace loads).
func (p *Proc) ReadMem(va uint64, buf []byte) error {
	p.k.Gate.Enter()
	defer p.k.Gate.Exit()
	return p.Mem.Read(va, buf)
}

// Umtx is a minimal futex: it demonstrates why TIDs must be restored (the
// pthread library keys waits by TID).
func (p *Proc) UmtxWait(tid PID) error {
	return p.k.syscall(func() error {
		p.umtxWaits[tid]++
		ok := p.k.Gate.Sleep(func() bool { return p.umtxWaits[tid] == 0 })
		if !ok {
			// Back out: forget the wait; the restart will re-register.
			if p.umtxWaits[tid] > 0 {
				p.umtxWaits[tid]--
			}
			return errRestart
		}
		return nil
	})
}

// UmtxWake wakes all waiters keyed by tid.
func (p *Proc) UmtxWake(tid PID) {
	p.k.syscall(func() error { //nolint:errcheck // cannot fail
		p.umtxWaits[tid] = 0
		p.k.Gate.Broadcast()
		return nil
	})
}
