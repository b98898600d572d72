package flight

import "testing"

// BenchmarkMergeTail measures folding a 5-event tail onto a full 256-event
// ring — what every WAL commit does to FlightOID.
func BenchmarkMergeTail(b *testing.B) {
	r := NewRecorder(0)
	for i := 0; i < 3*DefaultCap; i++ {
		r.Record(int64(i), EvDevWrite, int64(i), 4096, 0, "")
	}
	ring, seq := r.Since(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 5; j++ {
			r.Record(int64(i), EvFlushJob, int64(j), 0, 0, "")
		}
		var tail []byte
		tail, seq = r.Since(seq)
		var err error
		if ring, err = Merge(ring, tail, DefaultCap); err != nil {
			b.Fatal(err)
		}
	}
}
