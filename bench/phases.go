package main

import (
	"fmt"
	"runtime"
	"time"

	"aurora"
)

// world is one machine with the application and consistency group a
// workload drives on it.
type world struct {
	m    *aurora.Machine
	g    *aurora.Group
	a    app
	name string // group name
}

// opBatch is how many application ops run between two looks at the
// checkpoint timer, as in the paper's saturation loops.
const opBatch = 64

// Series names: each is one kind of call the driver makes, and the name of
// its span in a traced run.
const (
	sBatch     = "apps.batch"
	sCommit    = "bench.commit" // checkpoint plus the barrier that follows, when one does
	sCkpt      = "sls.checkpoint"
	sBarrier   = "sls.barrier"
	sCrashRest = "bench.crash_restore" // crash + restore, by mode
	sCrash     = "aurora.crash"
	sRestore   = "sls.restore"
	sRebuild   = "apps.rebuild_index"
	sVerify    = "bench.verify"
	sSeed      = "sls.seed"
	sSync      = "sls.sync"
	sFailover  = "sls.failover"

	// Host series that are no call of the driver's, hence no span: a traced
	// batch's time per op, and what a checkpoint reports of its own flush.
	sOp     = "apps.op"
	sEncode = "sls.flush.encode"
	sWrite  = "objstore.write"
)

var restoreModes = [3]string{"eager", "lazy", "spec"}

// serve runs n application ops back to back in batches. Each op's virtual
// latency runs from the end of the previous op to its own end, so whatever
// afterBatch does (a periodic checkpoint's stop) lands on the op that waited
// for it.
func (x *run) serve(w *world, n int64, afterBatch func() error) error {
	clk := w.m.Clock
	for done := int64(0); done < n; {
		b := int64(opBatch)
		if n-done < b {
			b = n - done
		}
		batch := func() error {
			prev := clk.Now()
			for i := int64(0); i < b; i++ {
				put, err := w.a.op()
				x.attempted++
				if err != nil {
					x.fail("app op: %v", err)
				}
				x.putBytes += put
				if i == b-1 && afterBatch != nil {
					if err := afterBatch(); err != nil {
						return err
					}
				}
				now := clk.Now()
				if x.cur == x.parts[0] && (put > 0 || !x.putsOnly) {
					x.opVirt.add(int64(now - prev))
				}
				prev = now
			}
			return nil
		}
		var err error
		if x.traced {
			err = x.timed(sBatch, clk, batch)
			r := x.cur.series[sBatch]
			x.cur.ser(sOp).add(int64(r.at[len(r.at)-1]), r.host[len(r.host)-1]/float64(b), 0)
		} else {
			err = batch()
		}
		if err != nil {
			return err
		}
		done += b
		x.servedOps += b
		x.cal.tick()
		if err := x.expired(); err != nil {
			return err
		}
	}
	return nil
}

// commit takes one checkpoint of kind (through MaybePeriodic when periodic
// is set) and, when barrier is set, waits for it to be durable; it records
// what the checkpoint reports about itself.
func (x *run) commit(w *world, kind aurora.CheckpointKind, periodic, barrier bool) error {
	clk := w.m.Clock
	start, at := clk.Now(), hostNow()
	var st aurora.CheckpointStats
	err := x.timed(sCommit, clk, func() error {
		err := x.timed(sCkpt, clk, func() error {
			var err error
			if periodic {
				var took bool
				st, took, err = w.g.MaybePeriodic()
				if err == nil && !took {
					err = fmt.Errorf("period elapsed but MaybePeriodic took no checkpoint")
				}
			} else {
				st, err = w.g.Checkpoint(kind)
			}
			return err
		})
		if err != nil || !barrier {
			return err
		}
		return x.timed(sBarrier, clk, w.g.Barrier)
	})
	x.attempted++
	if err != nil {
		x.fail("checkpoint: %v", err)
		return nil
	}
	x.cur.stop = append(x.cur.stop, float64(st.StopTime))
	x.cur.durable = append(x.cur.durable, float64(st.DurableAt-start))
	x.cur.durableLag = append(x.cur.durableLag, float64(st.DurableAt-start-st.StopTime))
	x.cur.osTime = append(x.cur.osTime, float64(st.OSTime))
	x.cur.memTime = append(x.cur.memTime, float64(st.MemTime))
	x.cur.ser(sEncode).add(at, float64(st.EncodeTime), 0)
	x.cur.ser(sWrite).add(at, float64(st.WriteTime), 0)
	x.cur.dirtyPages += st.DirtyPages
	x.cur.objects += int64(st.Objects)
	if st.MaxQueueDepth > x.cur.queueDepthMax {
		x.cur.queueDepthMax = st.MaxQueueDepth
	}
	if st.FlushWorkers > x.cur.flushWorkers {
		x.cur.flushWorkers = st.FlushWorkers
	}
	if st.WALSeq != 0 {
		x.cur.walFrames++
	} else {
		x.cur.walFolds++
	}
	return nil
}

// stored brackets a phase whose commits count towards write amplification
// and the store's per-checkpoint byte figures.
func (x *run) stored(w *world, fn func() error) error {
	d0, s0, p0 := w.m.Disk.Stats(), w.m.Store.Stats(), x.putBytes
	err := fn()
	d1, s1 := w.m.Disk.Stats(), w.m.Store.Stats()
	x.cur.storedPuts += x.putBytes - p0
	x.cur.diskWrites += d1.Writes - d0.Writes
	x.cur.diskWriteBytes += d1.BytesWritten - d0.BytesWritten
	x.cur.diskReads += d1.Reads - d0.Reads
	x.cur.diskReadBytes += d1.BytesRead - d0.BytesRead
	x.cur.metaBytes += s1.MetaBytes - s0.MetaBytes
	x.cur.dataBytes += s1.DataBytes - s0.DataBytes
	x.blocksLive = s1.BlocksAllocated - s1.BlocksFreed
	return err
}

// commitRounds runs rounds of (ops application ops, then a checkpoint and
// barrier): the explicit-commit shape a workload uses for the checkpoint
// metrics its main loop does not produce.
func (x *run) commitRounds(w *world, rounds int, ops int64) error {
	return x.stored(w, func() error {
		for i := 0; i < rounds; i++ {
			if err := x.serve(w, ops, nil); err != nil {
				return err
			}
			if err := x.commit(w, aurora.CkptIncremental, false, true); err != nil {
				return err
			}
		}
		return nil
	})
}

// restoreChain runs cycles of crash -> restore (eager, lazy, speculative in
// turn) -> rebuild the app's index -> compare the arena with the digest taken
// after the last barrier -> serve ops -> checkpoint + barrier. The crash comes
// only after a barrier, so everything acknowledged is durable by
// construction; what is checked is that restore returns exactly that image.
func (x *run) restoreChain(w *world, cycles int, ops int64, seg *segmenter) error {
	if err := x.stored(w, func() error { return x.commit(w, aurora.CkptIncremental, false, true) }); err != nil {
		return err
	}
	want, err := w.a.digest(w.g.Procs()[0])
	if err != nil {
		return err
	}
	for c := 0; c < cycles; c++ {
		x.nextOp++
		mode := c % 3
		// A restore allocates the whole image at once. Collecting first
		// keeps a collection the previous cycle earned from landing inside
		// this cycle's timing, which is what made restore times of the
		// same image differ by a third between identical runs.
		runtime.GC()
		x.cal.tick()
		var st aurora.RestoreStats
		var recovery time.Duration // virtual time of the reboot's store recovery
		d0 := w.m.Disk.Stats()
		err := x.timed(sCrashRest+"."+restoreModes[mode], w.m.Clock, func() error {
			var m2 *aurora.Machine
			v0 := w.m.Clock.Now()
			if err := x.timed(sCrash, w.m.Clock, func() (err error) { m2, err = w.m.Crash(); return }); err != nil {
				return err
			}
			recovery = m2.Clock.Now() - v0
			return x.timed(sRestore+"."+restoreModes[mode], m2.Clock, func() (err error) {
				var g2 *aurora.Group
				switch mode {
				case 0:
					g2, st, err = m2.Restore(w.name)
				case 1:
					g2, st, err = m2.RestoreLazily(w.name)
				default:
					g2, st, err = m2.RestoreSpeculatively(w.name)
				}
				if err == nil {
					w.m, w.g = m2, g2
				}
				return
			})
		})
		x.cal.tick()
		x.attempted++
		if err != nil {
			// Without a restored group the chain cannot go on.
			x.fail("restore %s: %v", restoreModes[mode], err)
			return nil
		}
		// Both restore figures start at the power loss, as a user waiting
		// for the service sees them: store recovery, then the restore proper.
		switch mode {
		case 0:
			x.cur.restoreVirt = append(x.cur.restoreVirt, float64(recovery+st.Time))
			x.cur.restoreOnly = append(x.cur.restoreOnly, float64(st.Time))
			x.cur.pagesEager += st.PagesEager
		case 2:
			x.cur.ttfoVirt = append(x.cur.ttfoVirt, float64(recovery+st.TimeToFirstOp))
			x.cur.ttfoOnly = append(x.cur.ttfoOnly, float64(st.TimeToFirstOp))
			x.cur.specValidated += st.PagesValidated
			x.cur.specRollbacks += int64(st.Rollbacks)
		}
		p := w.g.Procs()[0]
		err = x.timed(sRebuild, w.m.Clock, func() error { return w.a.rebind(p) })
		x.check("rebuild after restore", err)
		err = x.timed(sVerify, w.m.Clock, func() error {
			got, err := w.a.digest(p)
			if err == nil && got != want {
				err = fmt.Errorf("arena CRC %08x after %s restore, %08x before the crash", got, restoreModes[mode], want)
			}
			return err
		})
		x.check("restored image", err)
		faults, _ := w.g.LazyPageIns()
		x.cur.lazyPageIns += faults
		d1 := w.m.Disk.Stats()
		x.cur.diskReads += d1.Reads - d0.Reads
		x.cur.diskReadBytes += d1.BytesRead - d0.BytesRead

		err = x.stored(w, func() error {
			if seg == nil {
				if err := x.serve(w, ops, nil); err != nil {
					return err
				}
			} else {
				seg.begin()
				err := x.measure(w.m.Clock, func() error {
					return x.serve(w, ops, func() error { seg.tick(); return nil })
				})
				if err != nil {
					return err
				}
			}
			return x.commit(w, aurora.CkptIncremental, false, true)
		})
		if err != nil {
			return err
		}
		if want, err = w.a.digest(p); err != nil {
			return err
		}
	}
	return nil
}

// replicate seeds a warm standby of the group on a fresh machine over a wire
// that drops a share drop of the frames each way, runs rounds of (work,
// Sync), then fails over and checks that the promoted image equals the
// primary's at its last sync. seg, when set, gets one tick per sync round.
func (x *run) replicate(w *world, netSeed int64, drop float64, rounds int, seg *segmenter, work func() error) error {
	x.nextOp++
	standby, err := aurora.NewMachine(aurora.Config{StorageBytes: standbyBytes})
	if err != nil {
		return err
	}
	w.m.Net = &aurora.NetConfig{
		Fwd: aurora.NetPlan{Seed: netSeed, DropProb: drop},
		Rev: aurora.NetPlan{Seed: netSeed + 1, DropProb: drop},
	}
	clk := w.m.Clock
	var rep *aurora.Replica
	err = x.timed(sSeed, clk, func() (err error) { rep, err = w.m.ReplicateTo(standby, w.name); return })
	x.attempted++
	if err != nil {
		x.fail("seeding the standby: %v", err)
		return nil
	}
	if seg != nil {
		seg.begin()
	}
	for r := 0; r < rounds; r++ {
		if err := work(); err != nil {
			return err
		}
		x.cal.tick()
		err := x.timed(sSync, clk, rep.Sync)
		x.attempted++
		if err != nil {
			x.fail("sync: %v", err)
			continue
		}
		x.cur.lagVirt = append(x.cur.lagVirt, float64(rep.LastLag))
		if seg != nil {
			seg.tick()
		}
		if err := x.expired(); err != nil {
			return err
		}
	}
	want, err := w.a.digest(w.g.Procs()[0])
	if err != nil {
		return err
	}
	x.cur.streamBytes += rep.BytesTotal
	x.cur.wireBytes += rep.WireBytes
	x.cur.retransmits += rep.Retransmits
	x.cur.backoffs += rep.Backoffs

	// Failover latency as a client of the promoted standby sees it: the
	// restore plus the first read that proves the image.
	v0 := standby.Clock.Now()
	err = x.timed(sFailover, standby.Clock, func() error {
		g2, _, err := rep.Failover(aurora.RestoreEager)
		if err != nil {
			return err
		}
		return x.timed(sVerify, standby.Clock, func() error {
			got, err := w.a.digest(g2.Procs()[0])
			if err == nil && got != want {
				err = fmt.Errorf("promoted arena CRC %08x, primary had %08x at its last sync", got, want)
			}
			return err
		})
	})
	x.check("failover", err)
	x.cur.failoverVirt = append(x.cur.failoverVirt, float64(standby.Clock.Now()-v0))
	x.check("promoted standby", verifyMachine(standby))
	return nil
}

const (
	standbyBytes = 2 << 30
	dropProb     = 0.02
)

// verifyMachine is the invariant auditor and a store fsck over m: every
// workload's last step on the machine it ended on, and every failover's on
// the promoted standby.
func verifyMachine(m *aurora.Machine) error {
	if rep := m.Audit(); !rep.OK() {
		return fmt.Errorf("audit: %s", rep)
	}
	if fr := m.Store.Fsck(); !fr.OK() {
		return fmt.Errorf("fsck: %v", fr.Problems)
	}
	return nil
}

// setUp times build as one set-up. The machine built reps-1 times is
// dropped; the last is the one the workload measures on.
func (x *run) setUp(reps int, build func() (*world, error)) (*world, error) {
	var w *world
	for i := 0; i < reps; i++ {
		// Each set-up starts from a collected heap, so that it reuses the
		// spans the previous one left instead of faulting in fresh memory
		// until the collector's next cycle: without this the small image's
		// set-ups took 31 ms before that cycle and 15 ms after it, and their
		// median sat on the edge between the two.
		w = nil
		runtime.GC()
		x.cal.tick()
		t0 := hostNow()
		var err error
		if w, err = build(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		x.setups.add(t0, float64(hostNow()-t0), 0)
		x.cal.tick()
		if err := x.expired(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// warm takes the first full checkpoint and barrier, then the warm-up
// checkpoints that let shadow chains, flush pools and the store's free
// lists reach their steady shape before anything is measured.
func warm(w *world, ops int64) error {
	if _, err := w.g.Checkpoint(aurora.CkptIncremental); err != nil {
		return err
	}
	if err := w.g.Barrier(); err != nil {
		return err
	}
	for i := 0; i < warmCheckpoints; i++ {
		for j := int64(0); j < ops; j++ {
			if _, err := w.a.op(); err != nil {
				return err
			}
		}
		if _, err := w.g.Checkpoint(aurora.CkptIncremental); err != nil {
			return err
		}
	}
	return w.g.Barrier()
}

const warmCheckpoints = 20
