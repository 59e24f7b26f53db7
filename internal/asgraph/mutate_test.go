package asgraph

import (
	"reflect"
	"testing"
)

// buildTestGraph returns a small compacted graph: a provider chain
// 0→1→2 (0 sells to 1, 1 sells to 2) and peers 0-3, 0-4, 3-4.
func buildTestGraph() *Graph {
	g := NewGraph()
	for i := 0; i < 5; i++ {
		g.AddAS(&AS{ASN: 100 + i, Metros: []int{0}})
	}
	g.AddC2P(1, 0)
	g.AddC2P(2, 1)
	g.AddPeerUnique(0, 3)
	g.AddPeerUnique(0, 4)
	g.AddPeerUnique(3, 4)
	g.Compact()
	return g
}

func TestRemovePeerPreservesOrder(t *testing.T) {
	g := buildTestGraph()
	if !g.RemovePeer(0, 3) {
		t.Fatal("RemovePeer(0,3) found no link")
	}
	if g.HasPeer(0, 3) || g.HasPeer(3, 0) {
		t.Fatal("link 0-3 still present after removal")
	}
	if !g.HasPeer(0, 4) || !g.HasPeer(3, 4) {
		t.Fatal("unrelated links were damaged")
	}
	// Remaining adjacency keeps insertion order.
	if want := []int32{4}; !reflect.DeepEqual(g.Peers[0], want) {
		t.Fatalf("Peers[0] = %v, want %v", g.Peers[0], want)
	}
	if g.RemovePeer(0, 3) {
		t.Fatal("second RemovePeer(0,3) reported a removal")
	}
}

// TestRemovePeerInPlaceDoesNotBleed pins the delta-overlay safety
// property: shrinking one AS's row inside the shared CSR backing must
// not corrupt its neighbors' rows.
func TestRemovePeerInPlaceDoesNotBleed(t *testing.T) {
	g := buildTestGraph()
	before3 := append([]int32(nil), g.Peers[3]...)
	before4 := append([]int32(nil), g.Peers[4]...)
	g.RemovePeer(0, 4) // shrinks rows 0 and 4
	if !reflect.DeepEqual(g.Peers[3], before3) {
		t.Fatalf("Peers[3] changed: %v -> %v", before3, g.Peers[3])
	}
	want4 := removeVal(before4, 0)
	if !reflect.DeepEqual(g.Peers[4], want4) {
		t.Fatalf("Peers[4] = %v, want %v", g.Peers[4], want4)
	}
}

func removeVal(xs []int32, v int32) []int32 {
	out := make([]int32, 0, len(xs))
	for _, x := range xs {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

func TestMaybeCompactThreshold(t *testing.T) {
	g := buildTestGraph() // Compact reset the counter
	if g.Mutations() != 0 {
		t.Fatalf("mutations after Compact = %d, want 0", g.Mutations())
	}
	g.AddPeer(1, 2)
	g.RemovePeer(1, 2)
	if g.Mutations() != 2 {
		t.Fatalf("mutations = %d, want 2", g.Mutations())
	}
	if g.MaybeCompact(3) {
		t.Fatal("MaybeCompact compacted below threshold")
	}
	g.AddPeer(1, 2)
	if !g.MaybeCompact(3) {
		t.Fatal("MaybeCompact did not compact at threshold")
	}
	if g.Mutations() != 0 {
		t.Fatalf("mutations after MaybeCompact = %d, want 0", g.Mutations())
	}
	// The re-packed graph is intact and still mutable.
	if !g.HasPeer(1, 2) || !g.HasPeer(0, 3) {
		t.Fatal("links lost across MaybeCompact")
	}
	if !g.RemovePeer(0, 3) {
		t.Fatal("post-compact removal failed")
	}
}
