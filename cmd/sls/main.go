// Command sls is the Aurora command-line interface (Table 2 of the paper),
// operating on a simulated machine image kept in a real file. Each
// invocation boots the machine from the image (recovering the store from
// its last complete checkpoint), performs one operation, and saves the
// image back — so persistence is demonstrated across ordinary process
// lifetimes, just as Aurora persists across reboots.
//
// The built-in demo application is a counter that keeps its entire state in
// simulated process memory. Attach it, step it, kill the machine whenever
// you like; restore continues exactly where the last checkpoint left it.
//
//	sls -img m.img init
//	sls -img m.img attach -name demo -steps 500
//	sls -img m.img ps
//	sls -img m.img restore -name demo -steps 500
//	sls -img m.img history
//	sls -img m.img timetravel -name demo -epoch 3
//	sls -img m.img dump -name demo -o demo.core
//	sls -img a.img send -name demo | sls -img b.img recv
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"aurora"
	"aurora/internal/elfcore"
	"aurora/internal/flight"
	"aurora/internal/vm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sls:", err)
		os.Exit(1)
	}
}

func run() error {
	img := flag.String("img", "aurora.img", "machine image file")
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		return fmt.Errorf("no command")
	}
	cmd := flag.Arg(0)
	args := flag.Args()[1:]

	switch cmd {
	case "init":
		return cmdInit(*img)
	case "attach":
		return cmdAttach(*img, args)
	case "checkpoint":
		return cmdCheckpoint(*img, args)
	case "restore", "resume":
		return cmdRestore(*img, args)
	case "suspend":
		return cmdSuspend(*img, args)
	case "ps":
		return cmdPS(*img)
	case "history":
		return cmdHistory(*img)
	case "timetravel":
		return cmdTimeTravel(*img, args)
	case "dump":
		return cmdDump(*img, args)
	case "send":
		return cmdSend(*img, args)
	case "recv":
		return cmdRecv(*img)
	case "replicate":
		return cmdReplicate(*img, args)
	case "fsck":
		return cmdFsck(*img)
	case "inspect":
		return cmdInspect(*img, args)
	case "scenario":
		return cmdScenario(args)
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: sls [-img FILE] COMMAND
commands:
  init                              format a new machine image
  attach -name N [-steps K]         run the demo app under persistence
  checkpoint -name N                take a named checkpoint
  restore -name N [-steps K]        restore the app and continue it
  suspend -name N                   suspend the app into the store
  ps                                list persisted applications
  history                           list restorable checkpoint epochs
  timetravel -name N -epoch E       restore an older checkpoint
  dump -name N [-o FILE]            write an ELF coredump
  send -name N                      stream a checkpoint to stdout
  recv                              receive a checkpoint from stdin
  replicate -name N -dst FILE       keep a warm standby in another image,
                                    syncing over a simulated lossy wire
  fsck                              verify store consistency
  inspect [-name N] [-json] [-tail K]
                                    machine summary: store, groups, live and
                                    pre-crash flight tails, invariant audit;
                                    fails on a violation or an undecodable ring
  scenario run [-seed S] [-stretch N] [-artifacts DIR] [-v] FILE|DIR...
                                    execute declarative chaos scenarios
  scenario validate FILE|DIR...     check scenario files without running
  scenario list [-json] FILE|DIR... enumerate a scenario corpus
  scenario                          list every kind a scenario can name`)
}

// boot loads the machine image, save writes it back.
func boot(img string) (*aurora.Machine, error) {
	f, err := os.Open(img)
	if err != nil {
		return nil, fmt.Errorf("open image (run 'sls init' first?): %w", err)
	}
	defer f.Close()
	return aurora.BootImage(f)
}

func save(m *aurora.Machine, img string) error {
	f, err := os.Create(img)
	if err != nil {
		return err
	}
	defer f.Close()
	return m.SaveImage(f)
}

// commit takes an incremental checkpoint of g and waits for it to be durable.
func commit(g *aurora.Group) (aurora.CheckpointStats, error) {
	st, err := g.Checkpoint(aurora.CkptIncremental)
	if err == nil {
		err = g.Barrier()
	}
	return st, err
}

// printFlush reports what the checkpoint's serializer and flush pipeline did.
func printFlush(st aurora.CheckpointStats) {
	fmt.Printf("  serialize: %d objects, %d captured, %v\n", st.Objects, st.Captured, st.OSTime)
	fmt.Printf("  flush: %d bytes in %d jobs, encode %v, write %v\n",
		st.FlushBytes, st.MaxQueueDepth, st.EncodeTime, st.WriteTime)
}

// bootApp is the preamble of the verbs whose only flag is -name: boot the
// image and bring the named application back lazily.
func bootApp(img, verb string, args []string) (*aurora.Machine, *aurora.Group, string, error) {
	fs := flag.NewFlagSet(verb, flag.ExitOnError)
	name := fs.String("name", "demo", "application name")
	fs.Parse(args)
	m, err := boot(img)
	if err != nil {
		return nil, nil, "", err
	}
	g, _, err := m.RestoreLazily(*name)
	return m, g, *name, err
}

func cmdInit(img string) error {
	m, err := aurora.NewMachine(aurora.Config{StorageBytes: 1 << 30})
	if err != nil {
		return err
	}
	if err := save(m, img); err != nil {
		return err
	}
	fmt.Printf("formatted %s (epoch %d)\n", img, m.Store.Epoch())
	return nil
}

// The demo counter app: all state in simulated memory at a fixed layout
// (the first mapping of the process): [count u64][label 24 bytes].
const counterRegion = 1 << 20

func counterVA() uint64 { return vm.UserBase }

func stepCounter(p *aurora.Proc, m *aurora.Machine, steps int, g *aurora.Group) (uint64, error) {
	var buf [8]byte
	for i := 0; i < steps; i++ {
		if err := p.ReadMem(counterVA(), buf[:]); err != nil {
			return 0, err
		}
		v := binary.LittleEndian.Uint64(buf[:]) + 1
		binary.LittleEndian.PutUint64(buf[:], v)
		if err := p.WriteMem(counterVA(), buf[:]); err != nil {
			return 0, err
		}
		m.Clock.Advance(500 * time.Microsecond) // app "work"
		if g != nil {
			if _, _, err := g.MaybePeriodic(); err != nil {
				return 0, err
			}
		}
	}
	if err := p.ReadMem(counterVA(), buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

func cmdAttach(img string, args []string) error {
	fs := flag.NewFlagSet("attach", flag.ExitOnError)
	name := fs.String("name", "demo", "application name")
	steps := fs.Int("steps", 200, "demo app steps to run")
	fs.Parse(args)

	m, err := boot(img)
	if err != nil {
		return err
	}
	p := m.Spawn(*name)
	if _, err := p.Mmap(counterRegion, aurora.ProtRead|aurora.ProtWrite, false); err != nil {
		return err
	}
	g, err := m.Attach(*name, p)
	if err != nil {
		return err
	}
	v, err := stepCounter(p, m, *steps, g)
	if err != nil {
		return err
	}
	st, err := commit(g)
	if err != nil {
		return err
	}
	fmt.Printf("%s attached: counter=%d, %d checkpoints, last stop %v\n",
		*name, v, g.Checkpoints(), st.StopTime)
	printFlush(st)
	return save(m, img)
}

func cmdCheckpoint(img string, args []string) error {
	m, g, name, err := bootApp(img, "checkpoint", args)
	if err != nil {
		return err
	}
	st, err := commit(g)
	if err != nil {
		return err
	}
	fmt.Printf("checkpointed %s: epoch %d, stop %v\n", name, st.Epoch, st.StopTime)
	printFlush(st)
	return save(m, img)
}

func cmdRestore(img string, args []string) error {
	fs := flag.NewFlagSet("restore", flag.ExitOnError)
	name := fs.String("name", "demo", "application name")
	steps := fs.Int("steps", 200, "demo app steps to continue")
	fs.Parse(args)

	m, err := boot(img)
	if err != nil {
		return err
	}
	// Forensics first: what the machine was doing before it went down.
	if evs, _, ok, ferr := m.RecoveredFlight(); ferr == nil && ok {
		const tail = 8
		if len(evs) > tail {
			evs = evs[len(evs)-tail:]
		}
		fmt.Printf("pre-crash flight tail (%d events, 'sls inspect' for more):\n", len(evs))
		fmt.Print(flight.Format(evs))
	}
	g, rst, err := m.Restore(*name)
	if err != nil {
		return err
	}
	p := g.Procs()[0]
	before, err := stepCounter(p, m, 0, nil)
	if err != nil {
		return err
	}
	after, err := stepCounter(p, m, *steps, g)
	if err != nil {
		return err
	}
	if _, err := commit(g); err != nil {
		return err
	}
	fmt.Printf("%s restored in %v (%d procs): counter %d -> %d\n",
		*name, rst.Time, rst.Procs, before, after)
	return save(m, img)
}

func cmdSuspend(img string, args []string) error {
	m, g, name, err := bootApp(img, "suspend", args)
	if err != nil {
		return err
	}
	if err := g.Suspend(); err != nil {
		return err
	}
	fmt.Printf("suspended %s into the store (resume with 'sls restore')\n", name)
	return save(m, img)
}

func cmdPS(img string) error {
	m, err := boot(img)
	if err != nil {
		return err
	}
	groups, err := m.PersistedGroups()
	if err != nil {
		return err
	}
	if len(groups) == 0 {
		fmt.Println("no persisted applications")
		return nil
	}
	fmt.Printf("%-16s %s\n", "NAME", "EPOCH")
	for _, name := range groups {
		fmt.Printf("%-16s %d\n", name, m.Store.Epoch())
	}
	return nil
}

func cmdHistory(img string) error {
	m, err := boot(img)
	if err != nil {
		return err
	}
	for _, e := range m.History() {
		fmt.Printf("epoch %d\n", e)
	}
	return nil
}

func cmdTimeTravel(img string, args []string) error {
	fs := flag.NewFlagSet("timetravel", flag.ExitOnError)
	name := fs.String("name", "demo", "application name")
	epoch := fs.Uint64("epoch", 0, "checkpoint epoch to restore")
	fs.Parse(args)
	m, err := boot(img)
	if err != nil {
		return err
	}
	g, _, err := m.RestoreAt(*name, aurora.Epoch(*epoch))
	if err != nil {
		return err
	}
	v, err := stepCounter(g.Procs()[0], m, 0, nil)
	if err != nil {
		return err
	}
	fmt.Printf("%s at epoch %d: counter=%d\n", *name, *epoch, v)
	return nil
}

func cmdDump(img string, args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	name := fs.String("name", "demo", "application name")
	out := fs.String("o", "core", "output file")
	fs.Parse(args)
	m, err := boot(img)
	if err != nil {
		return err
	}
	g, _, err := m.Restore(*name)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := elfcore.Write(f, g.Procs()[0])
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d bytes\n", *out, n)
	return nil
}

func cmdSend(img string, args []string) error {
	_, g, _, err := bootApp(img, "send", args)
	if err != nil {
		return err
	}
	if _, err := commit(g); err != nil {
		return err
	}
	return g.Send(os.Stdout)
}

// cmdReplicate keeps a warm standby of the named application in a second
// machine image, shipping the seed and every sync over the simulated lossy
// network (sls replicate -name demo -dst standby.img -syncs 3 -drop 0.05).
// Between syncs the demo app keeps running, so the standby trails the
// primary by one checkpoint — exactly the paper's continuous-checkpoint
// high-availability mode.
func cmdReplicate(img string, args []string) error {
	fs := flag.NewFlagSet("replicate", flag.ExitOnError)
	name := fs.String("name", "demo", "application name")
	dstImg := fs.String("dst", "standby.img", "standby machine image file")
	syncs := fs.Int("syncs", 3, "delta syncs to ship after the seed")
	steps := fs.Int("steps", 50, "demo app steps between syncs")
	drop := fs.Float64("drop", 0, "forward-path frame drop probability [0,1)")
	dup := fs.Float64("dup", 0, "forward-path frame duplication probability")
	corrupt := fs.Float64("corrupt", 0, "forward-path frame corruption probability")
	seed := fs.Int64("seed", 1, "fault-plan PRNG seed")
	fs.Parse(args)

	src, err := boot(img)
	if err != nil {
		return err
	}
	dst, err := boot(*dstImg)
	if err != nil {
		return fmt.Errorf("standby %s: %w", *dstImg, err)
	}
	g, _, err := src.Restore(*name)
	if err != nil {
		return err
	}
	conn := src.NewConn(&aurora.NetConfig{
		Fwd: aurora.NetPlan{Seed: *seed, DropProb: *drop, DupProb: *dup, CorruptProb: *corrupt},
		Rev: aurora.NetPlan{Seed: *seed + 1, DropProb: *drop},
	})
	rep, err := g.ReplicateToVia(dst.SLS, conn)
	if err != nil {
		return err
	}
	fmt.Printf("seeded %s on %s: %d stream bytes, %d wire bytes, lag %v\n",
		*name, *dstImg, rep.LastBytes, rep.WireBytes, rep.LastLag)

	p := g.Procs()[0]
	for i := 1; i <= *syncs; i++ {
		v, err := stepCounter(p, src, *steps, nil)
		if err != nil {
			return err
		}
		if err := rep.Sync(); err != nil {
			return err
		}
		fmt.Printf("sync %d: counter=%d, %d bytes, lag %v\n", i, v, rep.LastBytes, rep.LastLag)
	}
	st := conn.Stats()
	fmt.Printf("replicated %s: %d syncs, %d stream bytes, %d wire bytes, %d retransmits, %d backoffs\n",
		*name, rep.Syncs, rep.BytesTotal, rep.WireBytes, rep.Retransmits, rep.Backoffs)
	fmt.Printf("  wire: %d frames sent, %d acks seen, %d dup-discards, %d corrupt-drops\n",
		st.FramesSent, st.AcksSeen, st.DupDiscards, st.CorruptDrops)
	if err := save(src, img); err != nil {
		return err
	}
	return save(dst, *dstImg)
}

func cmdFsck(img string) error {
	m, err := boot(img)
	if err != nil {
		return err
	}
	rep := m.Store.Fsck()
	fmt.Printf("%d objects (%d journals), %d blocks, %d retained epochs\n",
		rep.Objects, rep.Journals, rep.Blocks, rep.RetainedEpochs)
	if !rep.OK() {
		for _, p := range rep.Problems {
			fmt.Println("PROBLEM:", p)
		}
		return fmt.Errorf("%d problems found", len(rep.Problems))
	}
	fmt.Println("store is consistent")
	return nil
}

// cmdInspect prints the machine's /proc-like introspection page: store
// occupancy, per-group process/VM/descriptor tables, the flight-recorder
// tail (live and pre-crash), and an invariant-audit report. With -name the
// group is first restored (lazily, without saving the image back) so its
// live tables appear; without it only persisted state shows. It is the one
// read-only view of an image, and fails when the audit finds a violation or
// the pre-crash flight ring does not decode.
func cmdInspect(img string, args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	name := fs.String("name", "", "restore this group before inspecting")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	tail := fs.Int("tail", 16, "flight-recorder events to show")
	fs.Parse(args)

	m, err := boot(img)
	if err != nil {
		return err
	}
	if *name != "" {
		if _, _, err := m.RestoreLazily(*name); err != nil {
			return err
		}
	}
	r := m.Inspect(*tail)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			return err
		}
	} else {
		fmt.Print(r.Text())
	}
	if _, _, _, err := m.RecoveredFlight(); err != nil {
		return fmt.Errorf("flight ring: %w", err)
	}
	if !r.Audit.OK() {
		return fmt.Errorf("%d invariant violations", len(r.Audit.Violations))
	}
	return nil
}

func cmdRecv(img string) error {
	m, err := boot(img)
	if err != nil {
		return err
	}
	name, err := m.SLS.Recv(os.Stdin)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "received %q\n", name)
	return save(m, img)
}
