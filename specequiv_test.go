package aurora_test

// Serial-vs-speculative restore equivalence: the same crash image restored
// with its pages installed as each memory object is built (Restore) and after
// every object is rebuilt (RestoreSpeculatively) must leave byte-identical
// store state and identical application memory, and both machines must be
// audit-clean. The workloads and power cuts are seeded, so the sweep replays
// any failure from its seed.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"aurora"
	"aurora/internal/sls"
	"aurora/internal/vm"
)

const equivPages = 24

// buildCrashedTwin runs one seeded workload to a power cut and returns the
// rebooted machine plus the workload region. Two calls with the same seed
// produce byte-identical crash images (pinned by TestRunToRunDeterminism).
func buildCrashedTwin(seed int64) (*aurora.Machine, uint64, error) {
	m, err := aurora.NewMachine(aurora.Config{
		StorageBytes: 256 << 20,
		Fault:        &aurora.FaultPlan{CutAtSubmit: -1},
	})
	if err != nil {
		return nil, 0, err
	}
	p := m.Spawn("app")
	g, err := m.Attach("app", p)
	if err != nil {
		return nil, 0, err
	}
	va, err := p.Mmap(equivPages*vm.PageSize, aurora.ProtRead|aurora.ProtWrite, false)
	if err != nil {
		return nil, 0, err
	}

	// A few descriptors, so the checkpoints' generation gate has objects to
	// skip and to re-capture: every third memory write also goes down a pipe
	// and moves a file offset. (They draw nothing from rng.)
	_, wfd, err := p.Pipe()
	if err != nil {
		return nil, 0, err
	}
	ffd, err := p.Open("/equiv", aurora.ORead|aurora.OWrite, true)
	if err != nil {
		return nil, 0, err
	}

	rng := rand.New(rand.NewSource(seed))
	n := 30 + rng.Intn(40)
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			pg := uint64(rng.Intn(equivPages))
			if err := p.WriteMem(va+pg*vm.PageSize, []byte{byte(1 + rng.Intn(255))}); err != nil {
				return nil, 0, err
			}
			if i%3 == 0 {
				if _, err := p.Write(wfd, []byte{byte(i)}); err != nil {
					return nil, 0, err
				}
				if _, err := p.Write(ffd, []byte{byte(i)}); err != nil {
					return nil, 0, err
				}
			}
		case 6, 7:
			if _, err := g.Checkpoint(aurora.CkptIncremental); err != nil {
				return nil, 0, err
			}
		case 8:
			if _, err := g.Checkpoint(sls.CkptFull); err != nil {
				return nil, 0, err
			}
		case 9:
			j, err := g.Journal("wal", 1<<20)
			if err != nil {
				return nil, 0, err
			}
			payload := make([]byte, 8+rng.Intn(48))
			rng.Read(payload)
			if _, err := j.Append(payload); err != nil {
				return nil, 0, err
			}
		}
	}
	// Land on a committed image, then lose a tail of writes to the cut. The
	// live machine is audited first: the sls.capture rule needs a group that
	// has committed, which the restored ones below have not yet.
	if _, err := g.Checkpoint(aurora.CkptIncremental); err != nil {
		return nil, 0, err
	}
	if rep := m.Audit(); !rep.OK() {
		return nil, 0, fmt.Errorf("live machine audit: %s", rep)
	}
	for i := 0; i < 4; i++ {
		pg := uint64(rng.Intn(equivPages))
		p.WriteMem(va+pg*vm.PageSize, []byte{0xEE})
	}
	return m, va, nil
}

// readRegion pulls the whole workload region out of a restored group's
// process, faulting lazily where the restore left holes.
func readRegion(m *aurora.Machine, va uint64) ([]byte, error) {
	g, ok := m.Group("app")
	if !ok {
		return nil, fmt.Errorf("group %q not restored", "app")
	}
	procs := g.Procs()
	if len(procs) != 1 {
		return nil, fmt.Errorf("group has %d procs, want 1", len(procs))
	}
	buf := make([]byte, equivPages*vm.PageSize)
	if err := procs[0].ReadMem(va, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func equivCheck(seed int64) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("[seed=%d] %s", seed, fmt.Sprintf(format, args...))
	}
	mSerialLive, vaA, err := buildCrashedTwin(seed)
	if err != nil {
		return fail("twin A: %v", err)
	}
	mSpecLive, vaB, err := buildCrashedTwin(seed)
	if err != nil {
		return fail("twin B: %v", err)
	}
	if vaA != vaB {
		return fail("twins diverged before the cut: va %#x vs %#x", vaA, vaB)
	}
	mSerial, err := mSerialLive.PowerCut(seed, seed%2 == 0, seed%3 == 0)
	if err != nil {
		return fail("power cut A: %v", err)
	}
	mSpec, err := mSpecLive.PowerCut(seed, seed%2 == 0, seed%3 == 0)
	if err != nil {
		return fail("power cut B: %v", err)
	}

	if _, _, err := mSerial.Restore("app"); err != nil {
		return fail("serial restore: %v", err)
	}
	_, rst, err := mSpec.RestoreSpeculatively("app")
	if err != nil {
		return fail("speculative restore: %v", err)
	}
	if rst.PagesValidated <= 0 {
		return fail("the prefetch installed nothing: %+v", rst)
	}
	if rst.TimeToFirstOp <= 0 || rst.TimeToFirstOp >= rst.Time {
		return fail("time-to-first-op %v not below serial-equivalent total %v", rst.TimeToFirstOp, rst.Time)
	}

	// Application memory must match byte for byte.
	memSerial, err := readRegion(mSerial, vaA)
	if err != nil {
		return fail("read serial region: %v", err)
	}
	memSpec, err := readRegion(mSpec, vaA)
	if err != nil {
		return fail("read speculative region: %v", err)
	}
	if !bytes.Equal(memSerial, memSpec) {
		for i := range memSerial {
			if memSerial[i] != memSpec[i] {
				return fail("memory diverges at page %d offset %d: %#x vs %#x",
					i/int(vm.PageSize), i%int(vm.PageSize), memSerial[i], memSpec[i])
			}
		}
	}

	// Neither restore path may have written to the store: the post-restore
	// disk images must stay byte-identical.
	var imgSerial, imgSpec bytes.Buffer
	if err := mSerial.SaveImage(&imgSerial); err != nil {
		return fail("save serial image: %v", err)
	}
	if err := mSpec.SaveImage(&imgSpec); err != nil {
		return fail("save speculative image: %v", err)
	}
	if !bytes.Equal(imgSerial.Bytes(), imgSpec.Bytes()) {
		return fail("post-restore store images differ (%d vs %d bytes)",
			imgSerial.Len(), imgSpec.Len())
	}

	if rep := mSerial.Audit(); !rep.OK() {
		return fail("serial machine audit: %s", rep)
	}
	if rep := mSpec.Audit(); !rep.OK() {
		return fail("speculative machine audit: %s", rep)
	}
	return nil
}

// TestSerialSpeculativeEquivalence sweeps seeded crash images through both
// restore modes. AURORA_SPEC_EQUIV_SEEDS overrides the seed count.
func TestSerialSpeculativeEquivalence(t *testing.T) {
	seeds := 100
	if v := os.Getenv("AURORA_SPEC_EQUIV_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("AURORA_SPEC_EQUIV_SEEDS=%q: %v", v, err)
		}
		seeds = n
	}
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		if err := equivCheck(seed); err != nil {
			t.Error(err)
		}
	}
}
