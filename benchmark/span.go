package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark's own wrapper (no file under internal/ carries a timer). Spans
// of one op share Req; Parent is the span whose call this one decomposes.
//
// Levels of the ladder are replays: the handler call that decomposes a
// client call is a second execution of the same request, not a slice of the
// first. A replayed span is rebased onto its parent's start so the file
// reads as one nested tree per op; Replay marks it.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"` // 0: root of its op
	Req     int              `json:"req"`
	Layer   string           `json:"layer"`
	Name    string           `json:"name"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Replay  bool             `json:"replay,omitempty"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

func (s span) durNS() int64 { return s.EndNS - s.StartNS }

// recorder buffers spans in memory; flush writes them when the run ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// call times fn as a span of layer/name under parent and returns its id.
func (r *recorder) call(req, parent int, layer, name string, fn func()) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name})
	start := time.Since(r.epoch).Nanoseconds()
	fn()
	end := time.Since(r.epoch).Nanoseconds()
	r.spans[id-1].StartNS, r.spans[id-1].EndNS = start, end
	return id
}

func (r *recorder) count(id int, key string, v int64) {
	s := &r.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[key] = v
}

// rebase shifts every span recorded since mark (a len(r.spans) taken before
// the replay) so the replay's first span starts where parent does, and marks
// them replayed.
func (r *recorder) rebase(mark, parent int) {
	if mark >= len(r.spans) {
		return
	}
	shift := r.spans[parent-1].StartNS - r.spans[mark].StartNS
	for i := mark; i < len(r.spans); i++ {
		r.spans[i].StartNS += shift
		r.spans[i].EndNS += shift
		r.spans[i].Replay = true
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover (overlapping children are not
// counted twice; a child reaching past its parent is clipped).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, cursor := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, cursor), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.ID] = s.durNS() - covered
	}
	return out
}

// layerShares sums self time per layer over the spans of ops whose root
// span is named root (every op when root is empty), as shares of their
// total.
func layerShares(spans []span, root string) map[string]float64 {
	reqs := map[int]bool{}
	for _, s := range spans {
		if s.Parent == 0 && (root == "" || s.Name == root) {
			reqs[s.Req] = true
		}
	}
	self := selfTimes(spans)
	byLayer, total := map[string]float64{}, 0.0
	for _, s := range spans {
		if reqs[s.Req] {
			byLayer[s.Layer] += float64(self[s.ID])
			total += float64(self[s.ID])
		}
	}
	if total > 0 {
		for k := range byLayer {
			byLayer[k] /= total
		}
	}
	return byLayer
}

// durationsMS collects the durations of spans with the given layer and name.
func (r *recorder) durationsMS(layer, name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, float64(s.durNS())/1e6)
		}
	}
	return out
}

// flush writes one JSON span per line.
func (r *recorder) flush(path string) error {
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
	return f.Close()
}
