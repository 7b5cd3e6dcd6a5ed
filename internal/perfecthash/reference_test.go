package perfecthash

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refBuild is the original construction: it rehashes every key and
// allocates a slot buffer at every displacement it tries, and finds a
// doomed bucket only by scanning all maxDisplacement values. Build must
// return exactly what it returns, because the displacement table and
// seeds are written into watermarked binaries.
func refBuild(keys []uint32) (*Func, bool) {
	nb := uint32(len(keys))/2 + 1
	for seed1 := uint32(1); seed1 < 64; seed1++ {
		if f, ok := refTryBuild(keys, nb, seed1); ok {
			return f, true
		}
	}
	return nil, false
}

func refTryBuild(keys []uint32, nb, seed1 uint32) (*Func, bool) {
	n := uint32(len(keys))
	seed2 := seed1*0x9e3779b1 + 0x7f4a7c15
	buckets := make([][]uint32, nb)
	for _, k := range keys {
		b := mix(k, seed1) % nb
		buckets[b] = append(buckets[b], k)
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
	for _, bi := range order {
		bucket := buckets[bi]
		if len(bucket) == 0 {
			continue
		}
		placed := false
	searchLoop:
		for d := 0; d < maxDisplacement; d++ {
			slots := make([]uint32, 0, len(bucket))
			for _, k := range bucket {
				s := (mix(k, seed2) + uint32(d)) % n
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

// TestBuildMatchesReference compares Build with the original
// construction on random and address-like key sets, and checks that the
// comparison covered key sets whose first attempts fail.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	retried := 0
	for trial := 0; trial < 300; trial++ {
		size := 1 + rng.Intn(260)
		var keys []uint32
		if trial%2 == 0 {
			seen := map[uint32]bool{}
			for len(keys) < size {
				if k := rng.Uint32(); !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		} else {
			// Return addresses of call sites: increasing, small strides.
			addr := uint32(0x08048000 + rng.Intn(1<<16))
			for len(keys) < size {
				keys = append(keys, addr)
				addr += uint32(5 + rng.Intn(40))
			}
		}
		want, ok := refBuild(keys)
		got, err := Build(keys)
		if !ok {
			if err == nil {
				t.Fatalf("trial %d: Build succeeded where the reference failed", trial)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d keys): Build = seed1 %d, reference seed1 %d (or tables differ)",
				trial, len(keys), got.Seed1, want.Seed1)
		}
		if want.Seed1 > 1 {
			retried++
		}
	}
	if retried < 50 {
		t.Errorf("only %d of 300 key sets needed a second attempt", retried)
	}
}

// TestDoomedKeysNearWrap pins the wraparound exception: hashes this close
// to 2^32 wrap during the displacement search, so congruent ones can
// still separate and must be searched, not rejected.
func TestDoomedKeysNearWrap(t *testing.T) {
	const n = 5
	top := uint32(1<<32 - 3) // wraps at displacement 3
	if !doomed([][]uint32{{10, 10 + n}}, n) {
		t.Error("congruent non-wrapping pair not doomed")
	}
	if doomed([][]uint32{{top, top - 4*n}}, n) {
		t.Error("pair with a wrapping hash reported doomed")
	}
	if doomed([][]uint32{{10}, {10 + n}}, n) {
		t.Error("congruent keys in different buckets reported doomed")
	}
}
