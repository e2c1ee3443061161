package core_test

import (
	"fmt"

	"smoke/internal/core"
	"smoke/internal/expr"
	"smoke/internal/lineage"
	"smoke/internal/ops"
	"smoke/internal/storage"
)

func exampleOrders() *storage.Relation {
	rel := storage.NewEmpty("orders", storage.Schema{
		{Name: "region", Type: storage.TString},
		{Name: "amount", Type: storage.TFloat},
	})
	rel.AppendRow("emea", 10.0)
	rel.AppendRow("apac", 20.0)
	rel.AppendRow("emea", 30.0)
	rel.AppendRow("apac", 5.0)
	return rel
}

// Example walks the paper's core loop: open a DB, run an aggregation with
// lineage capture, and trace an output group back to its base rows.
func Example() {
	db := core.Open()
	db.Register(exampleOrders())

	res, _ := db.Query().
		From("orders", nil).
		GroupBy("region").
		Agg(ops.Sum, expr.C("amount"), "total").
		Run(core.CaptureOptions{Mode: ops.Inject})

	rids, _ := res.Backward("orders", []lineage.Rid{0})
	fmt.Printf("%s = %.0f from base rows %v\n", res.Out.Str(0, 0), res.Out.Float(1, 0), rids)
	// Output: emea = 40 from base rows [0 2]
}

// ExampleQuery_Trace builds a lineage-consuming query: the rows behind an
// output group, filtered and re-aggregated through the plan layer.
func ExampleQuery_Trace() {
	db := core.Open()
	db.Register(exampleOrders())

	base, _ := db.Query().
		From("orders", nil).
		GroupBy("region").
		Agg(ops.Sum, expr.C("amount"), "total").
		Run(core.CaptureOptions{Mode: ops.Inject})

	// Count the base rows behind group 0 with amount < 25 (the Where sinks
	// into the trace's rid-list expansion).
	cons, _ := db.Query().
		Trace(base, core.TraceBackward, "orders", core.Rids(0)).
		Where(expr.LtE(expr.C("amount"), expr.F(25))).
		GroupBy("region").
		Agg(ops.Count, nil, "n").
		Run(core.CaptureOptions{Mode: ops.Inject})

	fmt.Printf("%s kept %d of 2 rows\n", cons.Out.Str(0, 0), cons.Out.Int(1, 0))
	// Output: emea kept 1 of 2 rows
}

// ExampleQuery_Trace_where seeds the trace by predicate over the output
// rows instead of explicit rids — "the rows behind every group whose total
// exceeds 20".
func ExampleQuery_Trace_where() {
	db := core.Open()
	db.Register(exampleOrders())

	base, _ := db.Query().
		From("orders", nil).
		GroupBy("region").
		Agg(ops.Sum, expr.C("amount"), "total").
		Run(core.CaptureOptions{Mode: ops.Inject})

	traced, _ := db.Query().
		Trace(base, core.TraceBackward, "orders", core.Where(expr.GtE(expr.C("total"), expr.F(25)))).
		Run(core.CaptureOptions{})

	fmt.Println("rows behind heavy groups:", traced.Out.N)
	// Output: rows behind heavy groups: 2
}
