package sls

import (
	"fmt"

	"aurora/internal/objstore"
	"aurora/internal/rec"
)

// Record/replay (§1, §10): record/replay systems log every non-deterministic
// input, but an unbounded log cannot sustain recording indefinitely.
// Checkpointing bounds the log: only inputs since the last checkpoint need
// retaining, because everything older is already inside the checkpoint
// (buffered in socket queues or already consumed into application state).
//
// The recorder taps external socket input into a consistency group and
// appends each message to a synchronous journal (durable independently of
// checkpoints). Every checkpoint truncates the log. After a crash, replay
// re-injects the logged inputs on top of the restored checkpoint, and the
// application re-executes the lost window deterministically.
//
// Scope: inputs addressed to *bound* sockets (datagram servers, listeners).
// Per-connection stream replay would additionally need sequence-offset
// reconciliation, which this substrate does not model.

// replayJournalName is the per-group journal holding the input log.
const replayJournalName = ".replay-log"

// Recorder is a group's input recorder.
type Recorder struct {
	g *Group
	j *objstore.Journal
}

// EnableRecording starts logging external inputs to the group, bounded by
// the checkpoint cycle. capacity sizes the log journal; it needs to hold at
// most one checkpoint interval of input.
func (g *Group) EnableRecording(capacity int64) (*Recorder, error) {
	if g.recorder != nil {
		return g.recorder, nil
	}
	j, err := g.Journal(replayJournalName, capacity)
	if err != nil {
		return nil, err
	}
	r := &Recorder{g: g, j: j}
	g.recorder = r
	g.o.installRecordTap()
	return r, nil
}

// installRecordTap hooks the kernel's external-input path once.
func (o *Orchestrator) installRecordTap() {
	if o.K.RecordInput != nil {
		return
	}
	o.K.RecordInput = func(group uint64, localAddr string, data []byte, from string) {
		g := o.groups[group]
		if g == nil || g.recorder == nil {
			return
		}
		e := rec.NewEncoder()
		e.Str(localAddr)
		e.Str(from)
		e.Bytes(data)
		// Best effort: a full log degrades to plain checkpointing (the
		// tail window is lost on crash, as without recording).
		g.recorder.j.Append(e.Seal()) //nolint:errcheck
	}
}

// ReplayInput is one logged external input.
type ReplayInput struct {
	LocalAddr string
	From      string
	Data      []byte
}

// pending decodes the undelivered log.
func (r *Recorder) pending() ([]ReplayInput, error) {
	entries, err := r.j.Entries()
	if err != nil {
		return nil, err
	}
	out := make([]ReplayInput, 0, len(entries))
	for _, ent := range entries {
		d, err := rec.NewDecoder(ent.Payload)
		if err != nil {
			return nil, err
		}
		in := ReplayInput{LocalAddr: d.Str(), From: d.Str()}
		in.Data = d.Bytes()
		if err := d.Err(); err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// Replay re-injects the inputs logged after the restored checkpoint into
// the restored group's sockets. Call once after RestoreGroup; the group
// must have been recording before the crash. It returns the number of
// inputs re-injected. Replay is at-least-once: inputs that were already
// inside the checkpoint's socket buffers are not in the log (the
// checkpoint truncated it), so duplicates arise only from a crash between
// a checkpoint and its truncation commit.
func (g *Group) Replay() (int, error) {
	j, err := g.OpenJournal(replayJournalName)
	if err != nil {
		return 0, fmt.Errorf("sls: group was not recording: %w", err)
	}
	r := &Recorder{g: g, j: j}
	g.recorder = r
	g.o.installRecordTap()
	inputs, err := r.pending()
	if err != nil {
		return 0, err
	}
	n := 0
	g.o.K.Gate.Enter()
	for _, in := range inputs {
		sock, ok := g.o.K.SocketByAddr(in.LocalAddr)
		if !ok || sock.OwnerGroup != g.ID {
			continue // the socket did not survive; drop the input
		}
		sock.EnqueueRestored(in.Data, in.From, nil)
		n++
	}
	g.o.K.Gate.Exit()
	return n, nil
}

// onCheckpointTruncate bounds the log at every checkpoint: inputs up to the
// cut are captured by the checkpoint itself.
func (g *Group) onCheckpointTruncate() {
	if g.recorder != nil {
		g.recorder.j.Truncate()
	}
}
