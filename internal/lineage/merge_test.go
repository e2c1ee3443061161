package lineage

import (
	"reflect"
	"testing"
)

func TestConcatRidArrays(t *testing.T) {
	got := ConcatRidArrays([][]Rid{{1, 2}, nil, {3}, {4, 5, 6}})
	want := []Rid{1, 2, 3, 4, 5, 6}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if ConcatRidArrays(nil) != nil {
		t.Fatal("empty concat should be nil")
	}
}

func TestOffsetRebasePreservesMisses(t *testing.T) {
	arr := []Rid{0, -1, 1, 2, -1, 0}
	OffsetRebase(arr, 2, 6, 10)
	want := []Rid{0, -1, 11, 12, -1, 10}
	if !reflect.DeepEqual(arr, want) {
		t.Fatalf("got %v want %v", arr, want)
	}
}

func TestSlotRebase(t *testing.T) {
	arr := []Rid{1, -1, 0, 2}
	SlotRebase(arr, 0, 4, []Rid{5, 6, 7})
	want := []Rid{6, -1, 5, 7}
	if !reflect.DeepEqual(arr, want) {
		t.Fatalf("got %v want %v", arr, want)
	}
}

func TestMergeListsBySlotMatchesSerialOrder(t *testing.T) {
	// Two partitions over rids [0,4) and [4,8); groups keyed by rid%2 are
	// discovered as local slot 0/1 in both partitions but in swapped order in
	// partition 1.
	parts := [][][]Rid{
		{{0, 2}, {1, 3}}, // partition 0: slot0=even, slot1=odd
		{{5, 7}, {4, 6}}, // partition 1: slot0=odd, slot1=even
	}
	slotMaps := [][]Rid{{0, 1}, {1, 0}}
	ix := MergeListsBySlot(parts, slotMaps, 2)
	if got, want := ix.List(0), []Rid{0, 2, 4, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("group 0: got %v want %v", got, want)
	}
	if got, want := ix.List(1), []Rid{1, 3, 5, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("group 1: got %v want %v", got, want)
	}
	if ix.Cardinality() != 8 {
		t.Fatalf("cardinality %d", ix.Cardinality())
	}
}
