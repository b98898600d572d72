package vm

import (
	"fmt"
	"testing"

	"aurora/internal/clock"
	"aurora/internal/mem"
)

// Real-performance benchmarks of the VM hot paths (wall time of the
// simulator itself, not virtual time).

func benchSetup(b testing.TB, size int64) (*System, *Map, uint64) {
	b.Helper()
	sys := NewSystem(mem.New(0), clock.Discard{}, clock.DefaultCosts())
	m := sys.NewMap()
	obj := sys.NewObject(Anonymous, size)
	va, err := m.Map(obj, 0, size, ProtRead|ProtWrite, false)
	if err != nil {
		b.Fatal(err)
	}
	return sys, m, va
}

func BenchmarkWritePTEHit(b *testing.B) {
	_, m, va := benchSetup(b, 1<<20)
	buf := []byte{1}
	m.Write(va, buf) // populate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Write(va, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteFaultCold measures 1024 first-touch write faults (ns/op
// includes the address-space build).
func BenchmarkWriteFaultCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		writeFaultCold(b)
	}
}

// writeFaultCold is one op of BenchmarkWriteFaultCold.
func writeFaultCold(tb testing.TB) {
	buf := []byte{1}
	_, m, va := benchSetup(tb, 256<<20)
	for pg := uint64(0); pg < 1024; pg++ {
		if err := m.Write(va+pg*PageSize, buf); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestFaultAllocsBounded: 1024 cold write faults, address-space build
// included, allocate at most 150 times (1 124 when every fault allocated its
// PTE and both page indexes were hash maps): a fault installs its page and
// its PTE in place, and allocates only a leaf per 64 pages.
func TestFaultAllocsBounded(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() { writeFaultCold(t) })
	t.Logf("1024 cold write faults: %.0f allocations", allocs)
	if allocs > 150 {
		t.Fatalf("1024 cold write faults made %.0f allocations, gate 150", allocs)
	}
}

// BenchmarkSystemShadow1kPages measures shadowing a map with 1024 resident
// writable pages (ns/op includes building the map).
func BenchmarkSystemShadow1kPages(b *testing.B) {
	buf := []byte{1}
	for i := 0; i < b.N; i++ {
		sys, m, va := benchSetup(b, 8<<20)
		for pg := uint64(0); pg < 1024; pg++ {
			m.Write(va+pg*PageSize, buf)
		}
		pairs := SystemShadow(sys, []*Map{m}, nil)
		if len(pairs) != 1 {
			b.Fatal("no shadow")
		}
	}
}

// BenchmarkCollapseAurora measures the steady-state shadow/collapse cycle:
// write one page, shadow, collapse the previous interval (ns/op is the
// whole cycle — the continuous-checkpointing inner loop).
func BenchmarkCollapseAurora(b *testing.B) {
	buf := []byte{1}
	sys, m, va := benchSetup(b, 8<<20)
	for pg := uint64(0); pg < 1024; pg++ {
		m.Write(va+pg*PageSize, buf)
	}
	var prev *Object
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Write(va, buf) //nolint:errcheck
		pairs := SystemShadow(sys, []*Map{m}, nil)
		if prev != nil && prev.Backer() != nil && prev.ShadowCount() == 1 {
			CollapseAurora(pairs[0].Frozen, prev)
		}
		prev = pairs[0].Frozen
	}
}

// BenchmarkFork measures fork+destroy of a 1024-page address space (the
// pair must stay together: each fork replaces the parent's objects with
// shadows, so an unpaired loop would grow the chain unboundedly).
func BenchmarkFork(b *testing.B) {
	buf := []byte{1}
	for i := 0; i < b.N; i++ {
		_, m, va := benchSetup(b, 8<<20)
		for pg := uint64(0); pg < 256; pg++ {
			m.Write(va+pg*PageSize, buf)
		}
		child := m.Fork()
		child.Destroy()
		m.Destroy()
	}
}

// BenchmarkSystemShadowSparse measures the shadow pass of a checkpoint that
// dirtied 4 pages of a large mapping — write, shadow, collapse the previous
// interval — at two mapping sizes. The pass downgrades the pages written, so
// ns/op must not follow the size of the mapping.
func BenchmarkSystemShadowSparse(b *testing.B) {
	for _, pages := range []uint64{4096, 65536} {
		b.Run(fmt.Sprintf("%dpages", pages), func(b *testing.B) {
			buf := []byte{1}
			sys, m, va := benchSetup(b, int64(pages)*PageSize)
			for pg := uint64(0); pg < pages; pg++ { // resident: the loop measures no first touch
				m.Write(va+pg*PageSize, buf) //nolint:errcheck
			}
			prev := SystemShadow(sys, []*Map{m}, nil)[0].Frozen
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := uint64(0); j < 4; j++ {
					m.Write(va+(uint64(i)*4+j)*977%pages*PageSize, buf) //nolint:errcheck
				}
				pairs := SystemShadow(sys, []*Map{m}, nil)
				if prev != nil && prev.Backer() != nil && prev.ShadowCount() == 1 {
					CollapseAurora(pairs[0].Frozen, prev)
				}
				prev = pairs[0].Frozen
			}
		})
	}
}
