package exec

import (
	"smoke/internal/lineage"
	"smoke/internal/storage"
)

// RunLogicIdx executes an SPJA block with the Logic-Idx baseline strategy
// (§5, Appendix B): the Perm aggregation rewrite joins the aggregation output
// back with the join result, materializing a denormalized annotated relation
// (the aggregation's columns duplicated once per contributing join row, plus
// one rid annotation column per base table), and a final scan of that
// relation builds the same end-to-end indexes Smoke emits.
//
// Per Appendix B the rewrite is tuned: the chain hash tables and the
// aggregation hash table are reused for the re-join instead of being rebuilt,
// so the measured overhead isolates what is intrinsic to the logical
// approach — denormalized materialization and the separate indexing pass.
func RunLogicIdx(spec Spec, params map[string]any) (Result, *storage.Relation, error) {
	pipe, err := compilePipeline(spec, params)
	if err != nil {
		return Result{}, nil, err
	}
	pipe.buildChains()

	groups, err := pipe.newGroups(params)
	if err != nil {
		return Result{}, nil, err
	}
	n := spec.Tables[len(spec.Tables)-1].Rel.N
	slots := make([]lineage.Rid, batchRows)
	pipe.forEachBatch(0, n, func(cols [][]lineage.Rid) {
		groups.Fold(cols, slots[:len(cols[0])])
	})
	out := groups.Materialize("spja")

	// Re-join: second pass over the probe pipeline, reusing the pinned hash
	// tables, annotating every join row with its output rid and base rids.
	k := len(spec.Tables)
	oids := make([]lineage.Rid, 0, 1024)
	ridCols := make([][]lineage.Rid, k)
	pipe.forEachBatch(0, n, func(cols [][]lineage.Rid) {
		sb := slots[:len(cols[0])]
		groups.Probe(cols, sb)
		oids = append(oids, sb...)
		for t := range cols {
			ridCols[t] = append(ridCols[t], cols[t]...)
		}
	})

	// Materialize the denormalized annotated relation O'.
	annotated := out.Gather("annotated", oids)
	annotated.Schema = annotated.Schema.Clone()
	oidCol := storage.Column{Ints: make([]int64, len(oids))}
	for i, o := range oids {
		oidCol.Ints[i] = int64(o)
	}
	annotated.Schema = append(annotated.Schema, storage.Field{Name: "oid", Type: storage.TInt})
	annotated.Cols = append(annotated.Cols, oidCol)
	for t := 0; t < k; t++ {
		col := storage.Column{Ints: make([]int64, len(oids))}
		for i, r := range ridCols[t] {
			col.Ints[i] = int64(r)
		}
		annotated.Schema = append(annotated.Schema, storage.Field{Name: spec.Tables[t].Rel.Name + "_rid", Type: storage.TInt})
		annotated.Cols = append(annotated.Cols, col)
	}

	// Index-building scan over the annotated relation: same end-to-end
	// indexes as Smoke's capture.
	cap_ := lineage.NewCapture()
	last := k - 1
	for t := 0; t < k; t++ {
		name := spec.Tables[t].Rel.Name
		bw := lineage.NewRidIndex(out.N)
		for i, o := range oids {
			bw.Append(int(o), ridCols[t][i])
		}
		cap_.SetBackward(name, lineage.NewOneToMany(bw))
		if t == last {
			fw := make([]lineage.Rid, spec.Tables[t].Rel.N)
			for i := range fw {
				fw[i] = -1
			}
			for i, o := range oids {
				fw[ridCols[t][i]] = o
			}
			cap_.SetForward(name, lineage.NewOneToOne(fw))
		} else {
			fw := lineage.NewRidIndex(spec.Tables[t].Rel.N)
			for i, o := range oids {
				fw.Append(int(ridCols[t][i]), o)
			}
			cap_.SetForward(name, lineage.NewOneToMany(fw))
		}
	}
	return Result{Out: out, Capture: cap_, GroupCounts: groups.Counts()}, annotated, nil
}
