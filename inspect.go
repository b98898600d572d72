package aurora

import (
	"fmt"
	"sort"
	"strings"

	"aurora/internal/kern"
	"aurora/internal/trace"
)

// Inspection (`sls inspect`): a /proc-like read-only view of the machine —
// store occupancy, per-group process/VM/descriptor tables, checkpoint and
// replication counters, the flight-recorder tail, and an invariant-audit
// report — in one structure with both a stable text rendering and a stable
// JSON encoding. Everything here is a snapshot; nothing mutates the system
// except the audit pass (which only updates the watchdog's epoch memory).

// InspectReport is the full introspection snapshot.
type InspectReport struct {
	TimeNS int64         `json:"time_ns"` // virtual time of the snapshot
	Store  StoreInspect  `json:"store"`
	Groups []GroupInfo   `json:"groups"`
	Flight []FlightEntry `json:"flight"` // live ring tail, oldest first
	// Recovered is the pre-crash timeline persisted by the previous
	// incarnation of this machine, when one exists.
	Recovered []FlightEntry  `json:"recovered,omitempty"`
	Counters  []CounterEntry `json:"counters,omitempty"` // trace counters, sorted
	Audit     AuditReport    `json:"audit"`
}

// StoreInspect summarizes the object store.
type StoreInspect struct {
	Epoch       uint64   `json:"epoch"`
	Checkpoints int64    `json:"checkpoints"`
	ObjectsLive int64    `json:"objects_live"`
	DataBytes   int64    `json:"data_bytes"`
	MetaBytes   int64    `json:"meta_bytes"`
	Retained    []uint64 `json:"retained"` // restorable epochs
}

// GroupInfo is one consistency group's table.
type GroupInfo struct {
	Name        string     `json:"name"`
	ID          uint64     `json:"id"`
	Epoch       uint64     `json:"epoch"`
	Checkpoints int64      `json:"checkpoints"`
	Procs       []ProcInfo `json:"procs"`
}

// ProcInfo is one process row: identity plus VM and descriptor counts.
type ProcInfo struct {
	PID           int64    `json:"pid"` // local (restore-stable) PID
	Name          string   `json:"name"`
	Threads       int      `json:"threads"`
	Exited        bool     `json:"exited"`
	MapEntries    int      `json:"map_entries"`
	ResidentBytes int64    `json:"resident_bytes"`
	FDs           []FDInfo `json:"fds"`
}

// FDInfo is one descriptor-table row.
type FDInfo struct {
	FD   int    `json:"fd"`
	Kind string `json:"kind"` // vnode, pipe-r, pipe-w, socket, shm, kqueue, pty-m, pty-s, device
	Refs int32  `json:"refs"`
}

// FlightEntry is one flight-recorder event with the kind spelled out, so
// the JSON stays readable and stable if kind numbering ever grows.
type FlightEntry struct {
	AtNS   int64  `json:"at_ns"`
	Kind   string `json:"kind"`
	A      int64  `json:"a"`
	B      int64  `json:"b"`
	C      int64  `json:"c"`
	Detail string `json:"detail,omitempty"`
}

// CounterEntry is one counter total of the machine's observer.
type CounterEntry = trace.NamedValue

// Inspect snapshots the machine. tailN bounds the flight sections (0 means
// 16). The snapshot includes an audit pass, so inspecting a sick machine
// shows its violations inline.
func (m *Machine) Inspect(tailN int) InspectReport {
	if tailN <= 0 {
		tailN = 16
	}
	var r InspectReport
	r.TimeNS = int64(m.Clock.Now())

	st := m.Store.Stats()
	r.Store = StoreInspect{
		Epoch:       uint64(m.Store.Epoch()),
		Checkpoints: st.Checkpoints,
		ObjectsLive: st.ObjectsLive,
		DataBytes:   st.DataBytes,
		MetaBytes:   st.MetaBytes,
	}
	for _, ep := range m.Store.RetainedCheckpoints() {
		r.Store.Retained = append(r.Store.Retained, uint64(ep))
	}

	groups := m.SLS.Groups()
	sort.Slice(groups, func(i, j int) bool { return groups[i].Name < groups[j].Name })
	for _, g := range groups {
		gi := GroupInfo{
			Name:        g.Name,
			ID:          g.ID,
			Epoch:       uint64(g.Epoch()),
			Checkpoints: g.Checkpoints(),
		}
		for _, p := range g.Procs() {
			pi := ProcInfo{
				PID:     int64(p.LocalPID),
				Name:    p.Name,
				Threads: len(p.Threads),
				Exited:  p.Exited(),
			}
			if !p.Exited() && p.Mem != nil {
				pi.MapEntries = len(p.Mem.Entries())
				pi.ResidentBytes = p.Mem.ResidentBytes()
			}
			if !p.Exited() {
				p.FDs.Each(func(fd int, f *kern.File) {
					pi.FDs = append(pi.FDs, FDInfo{FD: fd, Kind: fdKind(f), Refs: f.Refs()})
				})
				sort.Slice(pi.FDs, func(i, j int) bool { return pi.FDs[i].FD < pi.FDs[j].FD })
			}
			gi.Procs = append(gi.Procs, pi)
		}
		r.Groups = append(r.Groups, gi)
	}

	for _, ev := range m.Flight.Tail(tailN) {
		r.Flight = append(r.Flight, flightEntry(ev))
	}
	if evs, _, ok, err := m.RecoveredFlight(); err == nil && ok {
		if len(evs) > tailN {
			evs = evs[len(evs)-tailN:]
		}
		for _, ev := range evs {
			r.Recovered = append(r.Recovered, flightEntry(ev))
		}
	}
	r.Counters = m.Tracer.Metrics().Counters

	r.Audit = m.Audit()
	return r
}

func flightEntry(ev FlightEvent) FlightEntry {
	return FlightEntry{AtNS: ev.At, Kind: ev.Kind.String(), A: ev.A, B: ev.B, C: ev.C, Detail: ev.Detail}
}

// fdKind names the implementation behind an open-file description.
func fdKind(f *kern.File) string {
	obj, aux := f.Behind()
	switch obj.(type) {
	case *kern.VnodeFile:
		return "vnode"
	case *kern.Pipe:
		return [...]string{"pipe-r", "pipe-w"}[aux]
	case *kern.Socket:
		return "socket"
	case *kern.ShmSegment:
		return "shm"
	case *kern.Kqueue:
		return "kqueue"
	case *kern.PTY:
		return [...]string{"pty-s", "pty-m"}[aux]
	case *kern.Device:
		return "device"
	}
	return "other"
}

// Text renders the report as a stable human-readable page, one section per
// subsystem, in the same order as the JSON fields.
func (r InspectReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine @ %dns\n", r.TimeNS)
	fmt.Fprintf(&b, "\nstore:\n")
	fmt.Fprintf(&b, "  epoch=%d checkpoints=%d objects=%d data=%dB meta=%dB\n",
		r.Store.Epoch, r.Store.Checkpoints, r.Store.ObjectsLive, r.Store.DataBytes, r.Store.MetaBytes)
	fmt.Fprintf(&b, "  retained epochs: %v\n", r.Store.Retained)

	fmt.Fprintf(&b, "\ngroups (%d):\n", len(r.Groups))
	for _, g := range r.Groups {
		fmt.Fprintf(&b, "  %s (id=%d) epoch=%d checkpoints=%d\n", g.Name, g.ID, g.Epoch, g.Checkpoints)
		for _, p := range g.Procs {
			status := ""
			if p.Exited {
				status = " [exited]"
			}
			fmt.Fprintf(&b, "    pid %-5d %-16s threads=%d entries=%d resident=%dB%s\n",
				p.PID, p.Name, p.Threads, p.MapEntries, p.ResidentBytes, status)
			for _, fd := range p.FDs {
				fmt.Fprintf(&b, "      fd %-3d %-8s refs=%d\n", fd.FD, fd.Kind, fd.Refs)
			}
		}
	}

	fmt.Fprintf(&b, "\nflight tail (%d):\n", len(r.Flight))
	writeFlight(&b, r.Flight)
	if len(r.Recovered) > 0 {
		fmt.Fprintf(&b, "\npre-crash flight (recovered, %d):\n", len(r.Recovered))
		writeFlight(&b, r.Recovered)
	}
	if len(r.Counters) > 0 {
		fmt.Fprintf(&b, "\ncounters:\n")
		for _, c := range r.Counters {
			fmt.Fprintf(&b, "  %-28s %d\n", c.Name, c.Value)
		}
	}
	fmt.Fprintf(&b, "\n%s\n", r.Audit)
	return b.String()
}

func writeFlight(b *strings.Builder, evs []FlightEntry) {
	if len(evs) == 0 {
		fmt.Fprintf(b, "  (none)\n")
		return
	}
	for _, ev := range evs {
		fmt.Fprintf(b, "  %12dns %-15s a=%d b=%d c=%d", ev.AtNS, ev.Kind, ev.A, ev.B, ev.C)
		if ev.Detail != "" {
			fmt.Fprintf(b, " [%s]", ev.Detail)
		}
		b.WriteByte('\n')
	}
}
