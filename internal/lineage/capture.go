package lineage

import "smoke/internal/serr"

// Capture holds the end-to-end lineage indexes produced while executing one
// base query: for each base relation referenced by the query, a backward
// index (output rid → base rids) and/or a forward index (base rid → output
// rids). Workload-aware pruning (§4.1) simply omits entries.
type Capture struct {
	backward map[string]*Index
	forward  map[string]*Index
}

// NewCapture returns an empty capture container.
func NewCapture() *Capture {
	return &Capture{backward: map[string]*Index{}, forward: map[string]*Index{}}
}

// SetBackward installs the backward index for a base relation.
func (c *Capture) SetBackward(rel string, ix *Index) { c.backward[rel] = ix }

// SetForward installs the forward index for a base relation.
func (c *Capture) SetForward(rel string, ix *Index) { c.forward[rel] = ix }

// BackwardIndex returns the backward index for rel, or an error if it was
// pruned or never captured.
func (c *Capture) BackwardIndex(rel string) (*Index, error) {
	ix, ok := c.backward[rel]
	if !ok {
		return nil, serr.New(serr.Invalid, "lineage: no backward index for relation %q (pruned or not captured)", rel)
	}
	return ix, nil
}

// ForwardIndex returns the forward index for rel, or an error if it was
// pruned or never captured.
func (c *Capture) ForwardIndex(rel string) (*Index, error) {
	ix, ok := c.forward[rel]
	if !ok {
		return nil, serr.New(serr.Invalid, "lineage: no forward index for relation %q (pruned or not captured)", rel)
	}
	return ix, nil
}

// HasBackward reports whether a backward index exists for rel.
func (c *Capture) HasBackward(rel string) bool { _, ok := c.backward[rel]; return ok }

// HasForward reports whether a forward index exists for rel.
func (c *Capture) HasForward(rel string) bool { _, ok := c.forward[rel]; return ok }

// Backward evaluates the backward lineage query Lb(out ⊆ O, rel): the base
// rids of rel that contributed to the given output rids (duplicates
// preserved, per transformational semantics).
func (c *Capture) Backward(rel string, out []Rid) ([]Rid, error) {
	ix, err := c.BackwardIndex(rel)
	if err != nil {
		return nil, err
	}
	if err := ix.CheckSeeds(out); err != nil {
		return nil, err
	}
	return ix.Trace(out), nil
}

// Forward evaluates the forward lineage query Lf(in ⊆ rel, O): the output
// rids that depend on the given base rids.
func (c *Capture) Forward(rel string, in []Rid) ([]Rid, error) {
	ix, err := c.ForwardIndex(rel)
	if err != nil {
		return nil, err
	}
	if err := ix.CheckSeeds(in); err != nil {
		return nil, err
	}
	return ix.Trace(in), nil
}

// BackwardDistinct is Backward with set semantics (which-provenance).
func (c *Capture) BackwardDistinct(rel string, out []Rid) ([]Rid, error) {
	return distinct(c.Backward(rel, out))
}

// ForwardDistinct is Forward with set semantics.
func (c *Capture) ForwardDistinct(rel string, in []Rid) ([]Rid, error) {
	return distinct(c.Forward(rel, in))
}

// distinct dedups a trace's rid bag (Dedup); a trace that reaches nothing
// answers nil.
func distinct(rids []Rid, err error) ([]Rid, error) {
	if err != nil || len(rids) == 0 {
		return nil, err
	}
	return Dedup(rids), nil
}

// EncodeAll compresses every captured index in place (post-capture encoding:
// operators capture into raw append-friendly structures, then the finished
// indexes shrink to their adaptive encoded forms — EncodeIndex for backward
// indexes, EncodeForward for forward ones). Both are idempotent, so indexes
// an operator already compressed are kept as they are. Queries over the
// capture read the encoded indexes transparently.
func (c *Capture) EncodeAll() {
	for rel, ix := range c.backward {
		c.backward[rel] = EncodeIndex(ix)
	}
	for rel, ix := range c.forward {
		c.forward[rel] = EncodeForward(ix)
	}
}

// MemBytes returns the payload memory footprint of every captured index
// (Index.SizeBytes summed over both directions). Together with the output
// relation's MemBytes it is what a retained result costs to keep alive —
// the quantity the server's LRU eviction budgets.
func (c *Capture) MemBytes() int64 {
	var total int64
	for _, ix := range c.backward {
		total += int64(ix.SizeBytes())
	}
	for _, ix := range c.forward {
		total += int64(ix.SizeBytes())
	}
	return total
}

// Relations returns the names of relations with at least one captured index.
func (c *Capture) Relations() []string {
	seen := map[string]struct{}{}
	var out []string
	for r := range c.backward {
		if _, ok := seen[r]; !ok {
			seen[r] = struct{}{}
			out = append(out, r)
		}
	}
	for r := range c.forward {
		if _, ok := seen[r]; !ok {
			seen[r] = struct{}{}
			out = append(out, r)
		}
	}
	return out
}
