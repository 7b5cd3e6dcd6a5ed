package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pathmark/internal/obs"
)

// span is one timed call in the traced run. Spans of one benchmark
// operation share Op; Parent is -1 for the operation's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the traced run's spans in memory; write stores them
// as JSON lines when the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, op int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: r.now()})
	return id
}

// end closes a span and returns its duration. Callers make the measured
// call directly between begin and end, as the untraced path makes it: a
// small callee such as isa.Execute is inlined into a direct caller but
// not into a closure, and ran 1.5 times slower through one.
func (r *recorder) end(id int) time.Duration {
	r.spans[id].End = r.now()
	return r.dur(id)
}

func (r *recorder) dur(id int) time.Duration {
	return time.Duration(r.spans[id].End - r.spans[id].Start)
}

// importStages copies the stage spans a program call recorded into reg
// (every span below the call's own top-level span) as children of
// parent, prefixed with the package name. obs keeps durations but not
// start times, so the imported spans are laid out back to back from the
// parent's start.
func (r *recorder) importStages(reg *obs.Registry, prefix string, parent int) map[string]time.Duration {
	got := map[string]time.Duration{}
	at := r.spans[parent].Start
	for _, s := range reg.Snapshot().Spans {
		if s.Depth == 0 {
			continue
		}
		name := prefix + s.Name
		r.spans = append(r.spans, span{
			ID: len(r.spans), Parent: parent, Op: r.spans[parent].Op,
			Name: name, Start: at, End: at + s.WallNS,
		})
		at += s.WallNS
		got[name] += time.Duration(s.WallNS)
	}
	return got
}

// accounted returns the time the root's children cover: the sum of the
// layer self-times below the root.
func (r *recorder) accounted(root int) time.Duration {
	var d time.Duration
	for i := root + 1; i < len(r.spans); i++ {
		if r.spans[i].Parent == root {
			d += r.dur(i)
		}
	}
	return d
}

// layerSelf adds the self-time of every span below root to its layer,
// the span name up to the first dot.
func (r *recorder) layerSelf(root int, into map[string]time.Duration) {
	children := map[int]time.Duration{}
	inTree := map[int]bool{root: true}
	for i := root + 1; i < len(r.spans); i++ {
		if p := r.spans[i].Parent; inTree[p] {
			inTree[i] = true
			children[p] += r.dur(i)
		}
	}
	for i := range inTree {
		if i == root {
			continue
		}
		layer, _, _ := strings.Cut(r.spans[i].Name, ".")
		into[layer] += r.dur(i) - children[i]
	}
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
