// Package perfecthash constructs minimal perfect hash functions over small
// sets of 32-bit keys (return addresses of branch-function call sites,
// paper §4.1). The branch function uses the hash to index the XOR table
// T[h(a)] = a ⊕ b stored in the binary's data section, so lookups must be
// collision-free, O(1), and expressible as a short fixed instruction
// sequence in the simulated ISA.
//
// The construction is hash-and-displace: keys are bucketed by a first-level
// hash, buckets are placed largest-first, and each bucket searches for a
// 16-bit displacement that maps all of its keys onto free slots of the
// output table. The function is described by the displacement array plus
// two mixing seeds, which the branch-function code generator materializes
// into data-section tables and straight-line arithmetic.
package perfecthash

import (
	"errors"
	"fmt"
	"sort"
)

// Func is a minimal perfect hash function over the key set it was built
// from: Lookup maps each key to a distinct index in [0, N).
type Func struct {
	Seed1, Seed2  uint32
	Displacements []uint16 // indexed by first-level bucket
	N             uint32   // number of keys == table size
}

// mix is the shared scrambling primitive; it must stay in lockstep with the
// instruction sequence emitted by the branch-function code generator.
func mix(key, seed uint32) uint32 {
	h := key ^ seed
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// Bucket returns the first-level bucket of key.
func (f *Func) Bucket(key uint32) uint32 {
	return mix(key, f.Seed1) % uint32(len(f.Displacements))
}

// Lookup returns the perfect-hash index of key in [0, N). For keys outside
// the construction set the result is an arbitrary in-range index.
func (f *Func) Lookup(key uint32) uint32 {
	d := uint32(f.Displacements[f.Bucket(key)])
	return (mix(key, f.Seed2) + d) % f.N
}

// maxDisplacement bounds the per-bucket displacement search; the
// displacement table stores uint16 values.
const maxDisplacement = 1 << 16

// Build constructs a minimal perfect hash over keys. Keys must be distinct
// and non-empty. The construction is deterministic for a given key set.
func Build(keys []uint32) (*Func, error) {
	n := uint32(len(keys))
	if n == 0 {
		return nil, errors.New("perfecthash: empty key set")
	}
	seen := make(map[uint32]bool, n)
	for _, k := range keys {
		if seen[k] {
			return nil, fmt.Errorf("perfecthash: duplicate key %#x", k)
		}
		seen[k] = true
	}
	// Bucket count ~ n/2 keeps buckets small while the displacement table
	// stays compact; at least 1.
	nb := n/2 + 1
	for seed1 := uint32(1); seed1 < 64; seed1++ {
		f, ok := tryBuild(keys, nb, seed1)
		if ok {
			return f, nil
		}
	}
	return nil, errors.New("perfecthash: construction failed (pathological key set)")
}

// tryBuild runs one hash-and-displace attempt. Buckets hold each key's
// second-level hash, computed once per attempt, and the displacement
// search reuses one slot buffer: a bucket that cannot be placed scans all
// maxDisplacement values, so the loop body must not allocate or rehash.
func tryBuild(keys []uint32, nb, seed1 uint32) (*Func, bool) {
	n := uint32(len(keys))
	seed2 := seed1*0x9e3779b1 + 0x7f4a7c15
	buckets := make([][]uint32, nb)
	maxLen := 0
	for _, k := range keys {
		b := mix(k, seed1) % nb
		buckets[b] = append(buckets[b], mix(k, seed2))
		maxLen = max(maxLen, len(buckets[b]))
	}
	if doomed(buckets, n) {
		return nil, false
	}
	order := make([]int, nb)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if len(buckets[order[a]]) != len(buckets[order[b]]) {
			return len(buckets[order[a]]) > len(buckets[order[b]])
		}
		return order[a] < order[b]
	})
	used := make([]bool, n)
	disp := make([]uint16, nb)
	slots := make([]uint32, 0, maxLen)
	for _, bi := range order {
		bucket := buckets[bi]
		if len(bucket) == 0 {
			continue
		}
		placed := false
	searchLoop:
		for d := 0; d < maxDisplacement; d++ {
			slots = slots[:0]
			for _, h := range bucket {
				s := (h + uint32(d)) % n
				if used[s] {
					continue searchLoop
				}
				for _, prev := range slots {
					if prev == s {
						continue searchLoop
					}
				}
				slots = append(slots, s)
			}
			for _, s := range slots {
				used[s] = true
			}
			disp[bi] = uint16(d)
			placed = true
			break
		}
		if !placed {
			return nil, false
		}
	}
	return &Func{Seed1: seed1, Seed2: seed2, Displacements: disp, N: n}, true
}

// doomed reports a bucket holding two keys whose second-level hashes are
// congruent mod n and do not wrap around 2^32 within the displacement
// range: they land on the same slot at every displacement, so the search
// would scan all maxDisplacement values and fail. Most failed attempts
// fail this way; answering up front makes such an attempt cost about as
// much as bucketing the keys, so Build's cost barely depends on how many
// attempts a key set needs.
func doomed(buckets [][]uint32, n uint32) bool {
	const noWrap = 1<<32 - maxDisplacement
	for _, bucket := range buckets {
		for i, h := range bucket {
			if h > noWrap {
				continue
			}
			for _, g := range bucket[:i] {
				if g <= noWrap && g%n == h%n {
					return true
				}
			}
		}
	}
	return false
}

// Verify checks that f is a bijection from keys onto [0, N); it is used by
// tests and by the branch-function builder as a post-condition.
func (f *Func) Verify(keys []uint32) error {
	if uint32(len(keys)) != f.N {
		return fmt.Errorf("perfecthash: %d keys but N=%d", len(keys), f.N)
	}
	hit := make([]bool, f.N)
	for _, k := range keys {
		i := f.Lookup(k)
		if i >= f.N {
			return fmt.Errorf("perfecthash: key %#x maps out of range: %d", k, i)
		}
		if hit[i] {
			return fmt.Errorf("perfecthash: collision at index %d (key %#x)", i, k)
		}
		hit[i] = true
	}
	return nil
}
