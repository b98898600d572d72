// Package kern is the simulated POSIX kernel the reproduction checkpoints:
// processes, threads, CPU state, file descriptors, vnodes, pipes, sockets,
// POSIX and SysV shared memory, kqueues, pseudoterminals, and device files,
// with the genuine sharing topology of a real kernel — open-file
// descriptions shared by fork and dup, vnodes shared by independent opens,
// descriptors passed over UNIX sockets. Capturing that topology exactly,
// one on-disk object per kernel object, is the paper's POSIX object model
// (§5).
//
// Execution model: application drivers are goroutines that enter the kernel
// through syscalls. The kernel runs under one lock (a big kernel lock, the
// Gate), the only lock of a machine — nothing below it locks again — which
// doubles as the quiesce mechanism: stopping the world means taking
// the lock, waking all sleepers so they transparently back out to the
// boundary, and waiting for in-kernel activity to drain — the simulation's
// analog of the paper's IPI-to-the-boundary protocol, including transparent
// restart of interrupted sleeping syscalls (no EINTR leaks to userspace).
package kern

import (
	"errors"
	"fmt"
	"sync"

	"aurora/internal/clock"
	"aurora/internal/slsfs"
	"aurora/internal/vm"
)

// PID identifies a process (or thread, for TIDs).
type PID int32

// Errors surfaced by syscalls.
var (
	ErrBadFD      = errors.New("kern: bad file descriptor")
	ErrNoProc     = errors.New("kern: no such process")
	ErrNoChildren = errors.New("kern: no children to wait for")
	ErrWouldBlock = errors.New("kern: operation would block") // EAGAIN
	ErrPipeClosed = errors.New("kern: broken pipe")           // EPIPE
	ErrNotSocket  = errors.New("kern: not a socket")
	ErrInvalid    = errors.New("kern: invalid argument")

	// errRestart is internal: a sleeping syscall was interrupted by a
	// quiesce and must be transparently reissued at the boundary.
	errRestart = errors.New("kern: restart syscall")
)

// Signal numbers (the subset the simulation uses).
type Signal int32

// Signals.
const (
	SIGHUP     Signal = 1
	SIGINT     Signal = 2
	SIGKILL    Signal = 9
	SIGUSR1    Signal = 10
	SIGUSR2    Signal = 12
	SIGTERM    Signal = 15
	SIGCHLD    Signal = 20
	SIGRESTORE Signal = 64 // Aurora-specific: delivered after a restore
)

// Gate is the big kernel lock plus the quiesce barrier.
type Gate struct {
	mu       sync.Mutex
	c        *sync.Cond
	stopped  bool
	inKernel int
}

// NewGate returns an open gate.
func NewGate() *Gate {
	g := &Gate{}
	g.c = sync.NewCond(&g.mu)
	return g
}

// Enter takes the kernel lock, blocking while the system is quiesced.
func (g *Gate) Enter() {
	g.mu.Lock()
	for g.stopped {
		g.c.Wait()
	}
	g.inKernel++
}

// Exit releases the kernel lock.
func (g *Gate) Exit() {
	g.inKernel--
	g.c.Broadcast()
	g.mu.Unlock()
}

// Sleep blocks the calling syscall until pred() holds. It returns false if
// the sleep was interrupted by a quiesce, in which case the syscall must
// back out with no side effects and be restarted. pred runs under the
// kernel lock.
func (g *Gate) Sleep(pred func() bool) bool {
	for !pred() {
		if g.stopped {
			return false
		}
		g.c.Wait()
	}
	return !g.stopped
}

// Broadcast wakes sleepers so they re-evaluate their predicates. Callers
// hold the kernel lock (they are inside a syscall).
func (g *Gate) Broadcast() { g.c.Broadcast() }

// Stop quiesces the system: no syscall may enter, sleepers back out to the
// boundary, and in-kernel activity drains. On return the caller owns the
// kernel exclusively (until Resume).
func (g *Gate) Stop() {
	g.mu.Lock()
	g.stopped = true
	g.c.Broadcast()
	for g.inKernel > 0 {
		g.c.Wait()
	}
	g.mu.Unlock()
}

// Resume reopens the gate.
func (g *Gate) Resume() {
	g.mu.Lock()
	g.stopped = false
	g.c.Broadcast()
	g.mu.Unlock()
}

// Stopped reports whether the system is quiesced.
func (g *Gate) Stopped() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stopped
}

// Kernel is one simulated machine's kernel.
type Kernel struct {
	Clk   clock.Clock
	Costs *clock.Costs
	VM    *vm.System
	FS    *slsfs.FS
	Gate  *Gate

	// ES, when set, intercepts cross-group socket sends for external
	// synchrony (the SLS orchestrator installs it).
	ES ESHook

	// bounds is the socket address registry, guarded by the BKL.
	bounds map[string]*Socket

	// VDSOVersion tags the vDSO device object; restores inject the
	// current kernel's version (§5.3).
	VDSOVersion string

	byGlobal  map[PID]*Proc
	nextPID   PID
	nextTID   PID
	sysv      map[int64]*ShmSegment  // SysV IPC namespace (key -> segment)
	shmNames  map[string]*ShmSegment // POSIX shm namespace
	nextShmID int64
	nextPTY   int
	nextAIO   uint64
}

// New creates a kernel over the given subsystems.
func New(clk clock.Clock, costs *clock.Costs, vmsys *vm.System, fs *slsfs.FS) *Kernel {
	return &Kernel{
		Clk:         clk,
		Costs:       costs,
		VM:          vmsys,
		FS:          fs,
		Gate:        NewGate(),
		VDSOVersion: "aurora-1",
		byGlobal:    make(map[PID]*Proc),
		nextPID:     1,
		nextTID:     1,
		sysv:        make(map[int64]*ShmSegment),
		shmNames:    make(map[string]*ShmSegment),
		nextShmID:   1,
	}
}

// allocPID returns a fresh global PID.
func (k *Kernel) allocPID() PID {
	pid := k.nextPID
	k.nextPID++
	return pid
}

// allocTID returns a fresh global TID.
func (k *Kernel) allocTID() PID {
	tid := k.nextTID
	k.nextTID++
	return tid
}

// register inserts a process into the global table.
func (k *Kernel) register(p *Proc) { k.byGlobal[p.GlobalPID] = p }

// unregister removes a process from the global table.
func (k *Kernel) unregister(p *Proc) { delete(k.byGlobal, p.GlobalPID) }

// ProcByLocal finds a process by its local (application-visible) PID within
// a group. Local PIDs are virtualized: the same local PID can exist in
// different groups simultaneously (§5.3, System Wide Identifiers).
func (k *Kernel) ProcByLocal(group uint64, pid PID) (*Proc, bool) {
	for _, p := range k.byGlobal {
		if p.GroupID == group && p.LocalPID == pid {
			return p, true
		}
	}
	return nil, false
}

// Procs returns all processes, optionally filtered by group.
func (k *Kernel) Procs(group uint64) []*Proc {
	var out []*Proc
	for _, p := range k.byGlobal {
		if group == 0 || p.GroupID == group {
			out = append(out, p)
		}
	}
	return out
}

// syscall wraps a syscall body with the gate and the transparent-restart
// protocol: a body interrupted by quiesce (errRestart) is reissued once the
// system resumes, exactly as Aurora rewinds the program counter to the
// syscall instruction.
func (k *Kernel) syscall(fn func() error) error {
	k.Clk.Advance(k.Costs.SyscallGate)
	for {
		k.Gate.Enter()
		err := fn()
		k.Gate.Exit()
		if !errors.Is(err, errRestart) {
			return err
		}
	}
}

// cpuCount is how many cores run the application: the IPI fan-out of a
// quiesce.
const cpuCount = 2

// Quiesce stops the world, charging one IPI round per CPU (forcing every
// core to the kernel boundary).
func (k *Kernel) Quiesce() {
	for i := 0; i < cpuCount; i++ {
		k.Clk.Advance(k.Costs.IPIRound)
	}
	k.Gate.Stop()
}

// Resume reopens the kernel after a quiesce.
func (k *Kernel) Resume() {
	k.Gate.Resume()
}

// String renders a small kernel summary.
func (k *Kernel) String() string {
	return fmt.Sprintf("kernel{procs=%d nextPID=%d}", len(k.byGlobal), k.nextPID)
}
