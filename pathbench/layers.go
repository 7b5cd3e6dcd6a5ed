package main

import (
	"fmt"
	"runtime"
	"time"

	"pathmark/internal/bitstring"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
)

// vmSamples collects the vm layer's traced samples for one leg.
type vmSamples struct {
	interpret, record, decode             []time.Duration
	allocMB, allocs, instrPerS, traceBits []float64
}

// trace records p's recognition trace and decodes it under parent.
func (v *vmSamples) trace(rec *recorder, parent, op int, p *vm.Program, input []int64) (*bitstring.Bits, error) {
	sp := rec.begin("vm.record", parent, op)
	tr, _, err := vm.CollectWith(p, vm.RunOptions{Input: input, SnapshotLimit: 1})
	dRecord := rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	sp = rec.begin("vm.decode", parent, op)
	bits := tr.DecodeBits()
	dDecode := rec.end(sp)
	v.record = append(v.record, dRecord)
	v.decode = append(v.decode, dDecode)
	v.traceBits = append(v.traceBits, float64(bits.Len()))
	return bits, nil
}

// probe runs the attribution calls for p under probe: the untraced
// interpreter (record time = CollectWith minus interpret) and a second
// recording run whose allocations MemStats measures.
func (v *vmSamples) probe(rec *recorder, probe, op int, p *vm.Program, input []int64) error {
	sp := rec.begin("vm.interpret", probe, op)
	res, err := vm.Run(p, vm.RunOptions{Input: input})
	dInterp := rec.end(sp)
	if err != nil {
		return fmt.Errorf("interpret: %w", err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp = rec.begin("vm.record_alloc", probe, op)
	_, _, err = vm.CollectWith(p, vm.RunOptions{Input: input, SnapshotLimit: 1})
	rec.end(sp)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	v.interpret = append(v.interpret, dInterp)
	v.allocMB = append(v.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	v.allocs = append(v.allocs, float64(m1.Mallocs-m0.Mallocs))
	v.instrPerS = append(v.instrPerS, float64(res.Steps)/dInterp.Seconds())
	return nil
}

func (v *vmSamples) metrics(m map[string]float64) {
	if len(v.record) == 0 {
		return
	}
	interp := median(msList(v.interpret))
	m["vm.interpret_ms"] = interp
	m["vm.record_ms"] = median(msList(v.record)) - interp
	m["vm.record_alloc_mb"] = median(v.allocMB)
	m["vm.record_allocs"] = median(v.allocs)
	m["vm.decode_ms"] = median(msList(v.decode))
	m["vm.instructions_per_s"] = median(v.instrPerS)
	m["vm.trace_bits"] = median(v.traceBits)
}

// scanSamples collects the wm scan/vote samples for one leg.
type scanSamples struct {
	scan, bits                []time.Duration
	windows, decrypted, valid []float64
}

// recognize runs RecognizeBits under parent.
func (s *scanSamples) recognize(rec *recorder, parent, op int, b *bitstring.Bits, key *wm.Key, workers int) (*wm.Recognition, error) {
	sp := rec.begin("wm.recognize_bits", parent, op)
	r, err := wm.RecognizeBits(b, key, wm.RecognizeOpts{Workers: workers})
	d := rec.end(sp)
	if err == nil {
		s.bits = append(s.bits, d)
	}
	return r, err
}

// probe runs the scan stage alone under probe, at the worker count r
// was recognized with (vote time = RecognizeBits minus scan), and checks
// its counts against r.
func (s *scanSamples) probe(rec *recorder, probe, op int, b *bitstring.Bits, key *wm.Key, workers int, r *wm.Recognition) error {
	sp := rec.begin("wm.scan", probe, op)
	st, err := wm.ScanOnly(b, key, wm.RecognizeOpts{Workers: workers})
	d := rec.end(sp)
	if err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	if st.Windows != r.Windows || st.Decrypted != r.Decrypted || st.Valid != r.ValidStatements {
		return fmt.Errorf("ScanOnly counts %+v disagree with RecognizeBits", st)
	}
	s.scan = append(s.scan, d)
	s.windows = append(s.windows, float64(st.Windows))
	s.decrypted = append(s.decrypted, float64(st.Decrypted))
	s.valid = append(s.valid, float64(st.Valid))
	return nil
}

func (s *scanSamples) metrics(m map[string]float64) {
	if len(s.scan) == 0 {
		return
	}
	scan := median(msList(s.scan))
	m["wm.scan_ms"] = scan
	m["wm.vote_ms"] = median(msList(s.bits)) - scan
	m["wm.windows"] = median(s.windows)
	m["wm.decrypted"] = median(s.decrypted)
	m["wm.valid_statements"] = median(s.valid)
	m["wm.valid_per_decrypted"] = sum(s.valid) / sum(s.decrypted)
}
