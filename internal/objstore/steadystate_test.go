package objstore

import (
	"testing"

	"aurora/internal/clock"
	"aurora/internal/device"
)

// Regression: an idle store checkpointing forever must reach a steady
// state — the free map (serialized into every index) must not fragment.
func TestIdleCheckpointSteadyState(t *testing.T) {
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	dev := device.NewStripe(clk, costs, 4, 64<<10, 1<<30)
	s, err := Format(dev, clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	oid := s.NewOID()
	s.PutRecord(oid, 1, make([]byte, 500))
	page := make([]byte, BlockSize)
	for i := 0; i < 200; i++ {
		s.PutRecord(oid, 1, page[:500]) // same small record each epoch
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		s.ReleaseCheckpointsBefore(s.Epoch())
	}
	if got := s.FreeRuns(); got > 16 {
		t.Fatalf("free map = %d runs after 200 idle epochs; metadata not recycling", got)
	}
	rep := s.Fsck()
	if !rep.OK() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}
