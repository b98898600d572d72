package aurora_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"aurora"
	"aurora/internal/vm"
)

// onDiskFormatSHA is the SHA-256 of the image the workload below leaves on
// the striped disks. It changes only when the on-disk format (or the submit
// sequence that lays it out) changes; a refactor must reproduce it exactly.
// Re-pinned when WAL frames began to carry the flight ring's tail instead of
// the ring (frame op 6) and an identical PutRecord stopped rewriting the record.
const onDiskFormatSHA = "d86b337404116dc88ea36137418f8e2412c8f3eb61b10fad4ea5371892dc0981"

// TestOnDiskFormatPinned drives every on-disk structure — inline records,
// paged objects with block-map chunks, a journal extent, WAL frames, folds,
// indexes and superblocks — from a fixed seed and pins the resulting image.
func TestOnDiskFormatPinned(t *testing.T) {
	m, err := aurora.NewMachine(aurora.Config{StorageBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	p := m.Spawn("app")
	g, err := m.Attach("app", p)
	if err != nil {
		t.Fatal(err)
	}
	g.Options.FlushWorkers = 1 // deterministic submit stream
	const pages = 400          // spans two block-map chunks
	va, err := p.Mmap(pages*vm.PageSize, aurora.ProtRead|aurora.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	j, err := g.Journal("log", 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(14))
	var walCommits, folds int
	for i := 0; i < 300; i++ {
		switch r := rng.Intn(20); {
		case r < 10:
			pg := uint64(rng.Intn(pages))
			buf := make([]byte, 1+rng.Intn(64))
			rng.Read(buf)
			if err := p.WriteMem(va+pg*vm.PageSize, buf); err != nil {
				t.Fatal(err)
			}
		case r < 13:
			payload := make([]byte, 8+rng.Intn(200))
			rng.Read(payload)
			if _, err := j.Append(payload); err != nil {
				t.Fatal(err)
			}
		case r < 15:
			data := make([]byte, rng.Intn(9000))
			rng.Read(data)
			if err := m.Store.PutRecord(m.Store.NewOID(), 0x7e57, data); err != nil {
				t.Fatal(err)
			}
		case r < 18:
			st, err := g.Checkpoint(aurora.CkptWAL)
			if err != nil {
				t.Fatal(err)
			}
			if st.WALSeq != 0 {
				walCommits++
			}
		case r < 19:
			if _, err := g.Checkpoint(aurora.CkptIncremental); err != nil {
				t.Fatal(err)
			}
			folds++
		default:
			if _, err := g.Checkpoint(aurora.CkptFull); err != nil {
				t.Fatal(err)
			}
			folds++
		}
	}
	// End on WAL frames over a folded base, so both are on the media.
	p.WriteMem(va, []byte("tail"))
	if _, err := g.Checkpoint(aurora.CkptWAL); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	if walCommits < 10 || folds < 5 {
		t.Fatalf("workload too thin: %d WAL commits, %d folds", walCommits, folds)
	}

	h := sha256.New()
	if err := m.SaveImage(h); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != onDiskFormatSHA {
		t.Fatalf("on-disk image SHA-256 = %s, want %s", got, onDiskFormatSHA)
	}
}
