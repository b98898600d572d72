// Package workload generates the key-value workloads of the paper's
// evaluation: the Facebook ETC workload (via Mutilate) that drives the
// Memcached experiments (Figures 4 and 5), and the Facebook Prefix_dist
// workload that drives RocksDB (Figure 6).
//
// Generators are deterministic given a seed.
package workload

import (
	"fmt"
	"math/rand"
)

// OpKind is a key-value operation type.
type OpKind uint8

// Operations.
const (
	OpGet OpKind = iota
	OpSet
)

// Op is one generated operation.
type Op struct {
	Kind  OpKind
	Key   string
	Value []byte
}

// Generator produces a stream of operations.
type Generator interface {
	Next() Op
	Name() string
}

// ETC models the Facebook ETC pool as characterized by Atikoglu et al.
// (SIGMETRICS'12) and used via Mutilate in the paper: ~30 byte keys, small
// values (90% under ~500 B), and a ~30:1 GET:SET ratio with a Zipfian key
// popularity distribution.
type ETC struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	setFrac float64
	value   []byte
}

// NewETC builds the ETC generator over a key space of n keys.
func NewETC(seed int64, keys int) *ETC {
	rng := rand.New(rand.NewSource(seed))
	return &ETC{
		rng:     rng,
		zipf:    rand.NewZipf(rng, 1.01, 1, uint64(keys-1)),
		setFrac: 0.033, // ~30:1 read:write
		value:   make([]byte, 300),
	}
}

// Name implements Generator.
func (e *ETC) Name() string { return "facebook-etc" }

// Next implements Generator.
func (e *ETC) Next() Op {
	key := fmt.Sprintf("etc:%012d", e.zipf.Uint64())
	if e.rng.Float64() < e.setFrac {
		// Value sizes: mostly small with a heavy tail.
		n := 64 + e.rng.Intn(436)
		if e.rng.Float64() < 0.05 {
			n = 1024 + e.rng.Intn(7168)
		}
		v := e.value
		if n > len(v) {
			v = make([]byte, n)
		}
		return Op{Kind: OpSet, Key: key, Value: v[:n]}
	}
	return Op{Kind: OpGet, Key: key}
}

// PrefixDist models Facebook's Prefix_dist RocksDB workload (Cao et al.,
// FAST'20): keys cluster under hot prefixes, values average ~400 bytes,
// and the get:put ratio is roughly 3:1.
type PrefixDist struct {
	rng     *rand.Rand
	perPre  int
	zipf    *rand.Zipf
	putFrac float64
}

// NewPrefixDist builds the generator with the given key-space shape.
func NewPrefixDist(seed int64, prefixes, keysPerPrefix int) *PrefixDist {
	rng := rand.New(rand.NewSource(seed))
	return &PrefixDist{
		rng:     rng,
		perPre:  keysPerPrefix,
		zipf:    rand.NewZipf(rng, 1.2, 1, uint64(prefixes-1)),
		putFrac: 0.25,
	}
}

// Name implements Generator.
func (p *PrefixDist) Name() string { return "prefix_dist" }

// Next implements Generator.
func (p *PrefixDist) Next() Op {
	prefix := p.zipf.Uint64()
	key := fmt.Sprintf("p%06d:k%08d", prefix, p.rng.Intn(p.perPre))
	if p.rng.Float64() < p.putFrac {
		n := 100 + p.rng.Intn(700)
		return Op{Kind: OpSet, Key: key, Value: make([]byte, n)}
	}
	return Op{Kind: OpGet, Key: key}
}

// Uniform is a uniform-random generator for microbenchmarks.
type Uniform struct {
	rng     *rand.Rand
	keys    int
	setFrac float64
	valueSz int
}

// NewUniform builds a uniform generator.
func NewUniform(seed int64, keys int, setFrac float64, valueSz int) *Uniform {
	return &Uniform{rng: rand.New(rand.NewSource(seed)), keys: keys, setFrac: setFrac, valueSz: valueSz}
}

// Name implements Generator.
func (u *Uniform) Name() string { return "uniform" }

// Next implements Generator.
func (u *Uniform) Next() Op {
	key := fmt.Sprintf("u:%010d", u.rng.Intn(u.keys))
	if u.rng.Float64() < u.setFrac {
		return Op{Kind: OpSet, Key: key, Value: make([]byte, u.valueSz)}
	}
	return Op{Kind: OpGet, Key: key}
}

// Fill returns ops that populate every key once (warm-up).
func Fill(keys int, prefix string, valueSz int) []Op {
	out := make([]Op, 0, keys)
	for i := 0; i < keys; i++ {
		out = append(out, Op{
			Kind:  OpSet,
			Key:   fmt.Sprintf("%s:%012d", prefix, i),
			Value: make([]byte, valueSz),
		})
	}
	return out
}
