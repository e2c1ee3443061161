package ops

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"smoke/internal/pool"
	"smoke/internal/storage"
)

// The M:N join and the set operations run one driver at every worker count,
// so comparing workers=1 with workers=N would compare the driver with
// itself. These tests compare every worker count with a naive
// tuple-at-a-time reference instead, element for element and with lists
// unsorted: order and duplicates are part of the contract.

var refWorkers = []int{1, 2, 3, 8}

func mnTestRels(seed int64, nLeft, nRight, keyDomain int) (*storage.Relation, *storage.Relation) {
	r := rand.New(rand.NewSource(seed))
	left := storage.NewRelation("L", storage.Schema{{Name: "k", Type: storage.TInt}}, nLeft)
	for i := 0; i < nLeft; i++ {
		left.Cols[0].Ints[i] = int64(r.Intn(keyDomain))
	}
	right := storage.NewRelation("R", storage.Schema{{Name: "j", Type: storage.TInt}}, nRight)
	for i := 0; i < nRight; i++ {
		right.Cols[0].Ints[i] = int64(r.Intn(keyDomain))
	}
	return left, right
}

// refLists builds the 1-to-N index over n entries whose entry key[i] lists
// every i, in order.
func refLists(n int, key []Rid) [][]Rid {
	out := make([][]Rid, n)
	for i, k := range key {
		out[k] = append(out[k], Rid(i))
	}
	return out
}

// mnReference is the nested-loop join: right rids in probe order, and for
// each the matching left rids in build (rid) order.
func mnReference(left, right *storage.Relation) (leftBW, rightBW []Rid) {
	lk, rk := left.Cols[0].Ints, right.Cols[0].Ints
	leftBW, rightBW = []Rid{}, []Rid{}
	for r := range rk {
		for l := range lk {
			if lk[l] == rk[r] {
				leftBW = append(leftBW, Rid(l))
				rightBW = append(rightBW, Rid(r))
			}
		}
	}
	return leftBW, rightBW
}

func sameLists(t *testing.T, what string, got interface{ List(int) []Rid }, want [][]Rid) {
	t.Helper()
	for i, w := range want {
		if g := got.List(i); !ridListsEqual(g, w) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, g, w)
		}
	}
}

// TestMNJoinParallelMatchesSerial pins every M:N variant at every worker
// count to the nested-loop reference: output cardinality, all four lineage
// indexes, and the materialized output, element for element. The Defer
// variants' deferred left forward index must be preallocated exactly at
// every worker count.
func TestMNJoinParallelMatchesSerial(t *testing.T) {
	p := pool.New(4)
	defer p.Close()
	for _, shape := range []struct{ nl, nr, dom int }{
		{50, 300, 10},   // heavy duplication
		{200, 200, 500}, // sparse matches
		{5, 40, 1000},   // near-empty result
	} {
		left, right := mnTestRels(7, shape.nl, shape.nr, shape.dom)
		wantLBW, wantRBW := mnReference(left, right)
		wantLFW, wantRFW := refLists(left.N, wantLBW), refLists(right.N, wantRBW)
		for _, variant := range []MNVariant{MNInject, MNDeferForward, MNDefer} {
			for _, dirs := range []Directions{CaptureBoth, CaptureBackward, CaptureForward, 0} {
				for _, w := range refWorkers {
					tag := fmt.Sprintf("shape=%+v variant=%d dirs=%b workers=%d", shape, variant, dirs, w)
					res, err := HashJoinMN(left, "k", right, "j", variant,
						JoinOpts{Dirs: dirs, Materialize: true, Workers: w, Pool: p})
					if err != nil {
						t.Fatal(err)
					}
					if res.OutN != len(wantLBW) {
						t.Fatalf("%s: OutN %d, want %d", tag, res.OutN, len(wantLBW))
					}
					if dirs.Backward() {
						if !reflect.DeepEqual(res.LeftBW, wantLBW) || !reflect.DeepEqual(res.RightBW, wantRBW) {
							t.Fatalf("%s: backward arrays differ from the reference", tag)
						}
					} else if res.LeftBW != nil || res.RightBW != nil {
						t.Fatalf("%s: backward captured without being asked for", tag)
					}
					if dirs.Forward() {
						sameLists(t, tag+" LeftFW", res.LeftFW, wantLFW)
						sameLists(t, tag+" RightFW", res.RightFW, wantRFW)
						if variant != MNInject {
							for i := 0; i < left.N; i++ {
								if l := res.LeftFW.List(i); cap(l) != len(l) {
									t.Fatalf("%s: deferred LeftFW[%d] cap %d != len %d", tag, i, cap(l), len(l))
								}
							}
						}
					} else if res.LeftFW != nil || res.RightFW != nil {
						t.Fatalf("%s: forward captured without being asked for", tag)
					}
					want := materializeJoin(left, right, wantLBW, wantRBW)
					if !reflect.DeepEqual(res.Out.Cols, want.Cols) || res.Out.N != want.N {
						t.Fatalf("%s: materialized output differs from the reference", tag)
					}
				}
			}
		}
	}
}

// setReference derives a set operation's output tuple-at-a-time: distinct
// keys in first-appearance order, A then B, kept per kind; each output's
// backward lists hold its key's rids in input order.
func setReference(a, b *storage.Relation, kind setOpKind) (keys []int64, aBW, bBW [][]Rid) {
	ak, bk := a.Cols[0].Ints, b.Cols[0].Ints
	inB := map[int64]bool{}
	for _, k := range bk {
		inB[k] = true
	}
	seen := map[int64]bool{}
	consider := func(k int64, fromA bool) {
		if seen[k] {
			return
		}
		seen[k] = true
		switch {
		case kind == intersectKind && !inB[k], kind == diffKind && inB[k], kind != unionKind && !fromA:
			return
		}
		keys = append(keys, k)
	}
	for _, k := range ak {
		consider(k, true)
	}
	for _, k := range bk {
		consider(k, false)
	}
	for _, key := range keys {
		var al, bl []Rid
		for r, k := range ak {
			if k == key {
				al = append(al, Rid(r))
			}
		}
		for r, k := range bk {
			if k == key {
				bl = append(bl, Rid(r))
			}
		}
		aBW, bBW = append(aBW, al), append(bBW, bl)
	}
	return keys, aBW, bBW
}

// refForward inverts per-output backward lists into a forward array over n
// inputs (-1 where no output).
func refForward(n int, bw [][]Rid) []Rid {
	fw := newForwardArray(n)
	for o, l := range bw {
		for _, r := range l {
			fw[r] = Rid(o)
		}
	}
	return fw
}

// TestSetUnionParallelMatchesSerial pins union, intersection and difference
// under both capture modes at every worker count to the tuple-at-a-time
// reference, element for element.
func TestSetUnionParallelMatchesSerial(t *testing.T) {
	p := pool.New(4)
	defer p.Close()
	a, b := mnTestRels(11, 120, 90, 60)
	ops := []struct {
		kind setOpKind
		run  func(*storage.Relation, []string, *storage.Relation, []string, CaptureMode, Directions, int, *pool.Pool) (SetOpResult, error)
	}{{unionKind, SetUnion}, {intersectKind, SetIntersect}, {diffKind, SetDiff}}
	for _, op := range ops {
		keys, wantABW, wantBBW := setReference(a, b, op.kind)
		wantAFW, wantBFW := refForward(a.N, wantABW), refForward(b.N, wantBBW)
		for _, mode := range []CaptureMode{Inject, Defer} {
			for _, w := range refWorkers {
				tag := fmt.Sprintf("%s mode=%v workers=%d", op.kind.name(), mode, w)
				res, err := op.run(a, []string{"k"}, b, []string{"j"}, mode, CaptureBoth, w, p)
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Out.Cols[0].Ints; len(got) != len(keys) || (len(keys) > 0 && !reflect.DeepEqual(got, keys)) {
					t.Fatalf("%s: output %v, want %v", tag, res.Out.Cols[0].Ints, keys)
				}
				sameLists(t, tag+" ABW", res.ABW, wantABW)
				if !reflect.DeepEqual(res.AFW, wantAFW) {
					t.Fatalf("%s: AFW differs from the reference", tag)
				}
				if op.kind == diffKind {
					if res.BBW != nil || res.BFW != nil {
						t.Fatalf("%s: difference captured lineage to B", tag)
					}
					continue
				}
				sameLists(t, tag+" BBW", res.BBW, wantBBW)
				if !reflect.DeepEqual(res.BFW, wantBFW) {
					t.Fatalf("%s: BFW differs from the reference", tag)
				}
			}
		}
	}
}

func ridListsEqual(a, b []Rid) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
