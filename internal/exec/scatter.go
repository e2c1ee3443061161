package exec

import (
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/plan"
	"smoke/internal/serr"
	"smoke/internal/storage"
)

// runForwardScatter lowers plan.ForwardScatter, the paper's BT+FT (§6.5.1,
// Listing 1): the bound trace's seeds expand list by list, each traced rid
// maps through the sibling's forward index to the sibling output row of its
// group, and a counter per row does what a hash group-by would. Groups are
// emitted in first-touch order — a row is appended when its counter leaves
// zero — which is the order the hash path discovers them in over the same
// rids, so rows, order and group counts are the GroupBy's.
//
// Everything runs on the calling goroutine: a brush costs a few thousand
// counter increments, less than queueing a morsel on the shared pool.
func runForwardScatter(node plan.ForwardScatter, opts PlanOpts) (nodeOut, error) {
	opts.Workers, opts.Pool = 1, nil
	bt, sib := node.Trace, node.Sibling
	srcOut, bw, err := traceIndex(nil, bt.Bound, bt.Table, ops.CaptureBackward, opts)
	if err != nil {
		return nodeOut{}, err
	}
	fw, err := sib.Capture.ForwardIndex(bt.Table)
	if err != nil {
		return nodeOut{}, err
	}
	seeds, err := traceSeeds(srcOut, bw.Len(), bt.SeedRids, bt.SeedPred, opts)
	if err != nil {
		return nodeOut{}, err
	}
	sc := scatter{fw: fw, counts: make([]int64, sib.Out.N), bad: -1}
	if bt.ScanEquiv != nil && plan.ScanBeatsIndex(len(seeds), srcOut.N) {
		// The hash path would aggregate the equivalent scan's rids in scan
		// order; counting them in that order keeps its group order.
		rids, err := scanRids(*bt.ScanEquiv, opts)
		if err != nil {
			return nodeOut{}, err
		}
		sc.add(rids)
	} else {
		// A raw list is read in place; an encoded one decodes into buf.
		var buf []lineage.Rid
		for _, s := range seeds {
			if bw.Kind == lineage.OneToMany {
				sc.add(bw.Many.List(int(s)))
				continue
			}
			buf = bw.TraceOne(s, buf[:0])
			sc.add(buf)
		}
	}
	if sc.bad >= 0 {
		return nodeOut{}, serr.New(serr.Internal,
			"exec: forward scatter: traced %s rid %d has no row in sibling %q", bt.Table, sc.bad, sib.Name)
	}

	// Keys come from the sibling's output rows, counts from the counters.
	kc := sib.Out.Schema.Col(node.Key)
	out := sib.Out.Project("groupby", []int{kc}).Gather("groupby", sc.order)
	var counts []int64 // nil when nothing was traced, like the hash path's
	if len(sc.order) > 0 {
		counts = make([]int64, len(sc.order))
		for j, slot := range sc.order {
			counts[j] = sc.counts[slot]
		}
	}
	for i, a := range node.Aggs {
		out.Schema = append(out.Schema, storage.Field{Name: a.OutName(i), Type: storage.TInt})
		out.Cols = append(out.Cols, storage.Column{Ints: append(make([]int64, 0, len(counts)), counts...)})
	}
	return nodeOut{rel: out, counts: counts,
		bw: map[string]*lineage.Index{}, fw: map[string]*lineage.Index{}}, nil
}

// scatter is the counter state of one forward scatter: a count per sibling
// output row, the rows in first-touch order, and the first traced rid that
// mapped to no row (-1 while there is none).
type scatter struct {
	fw     *lineage.Index
	counts []int64
	order  []lineage.Rid
	slots  []lineage.Rid
	bad    lineage.Rid
}

// add counts one run of traced rids.
func (s *scatter) add(rids []lineage.Rid) {
	s.slots = s.fw.Lookup(rids, s.slots[:0])
	counts := s.counts
	for j, slot := range s.slots {
		if uint(slot) >= uint(len(counts)) {
			if s.bad < 0 {
				s.bad = rids[j]
			}
			continue
		}
		if counts[slot] == 0 {
			s.order = append(s.order, slot)
		}
		counts[slot]++
	}
}
