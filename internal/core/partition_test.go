package core

import (
	"reflect"
	"testing"
)

// gridGraph builds a w×h mesh partition graph (row-major), optionally
// closing both dimensions into a torus. Unit edge weights.
func gridGraph(w, h int, torus bool) partitionGraph {
	g := partitionGraph{nodes: w * h}
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				g.edges = append(g.edges, partitionEdge{a: id(x, y), b: id(x+1, y), w: 1})
			} else if torus && w > 2 {
				g.edges = append(g.edges, partitionEdge{a: id(x, y), b: id(0, y), w: 1})
			}
			if y+1 < h {
				g.edges = append(g.edges, partitionEdge{a: id(x, y), b: id(x, y+1), w: 1})
			} else if torus && h > 2 {
				g.edges = append(g.edges, partitionEdge{a: id(x, y), b: id(x, 0), w: 1})
			}
		}
	}
	return g
}

// contiguous is the by-index split node i -> partition i*parts/n, the
// reference cut the graph-cut partitioner must match or beat.
func contiguous(n, parts int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i * parts / n
	}
	return out
}

func chainGraph(n int) partitionGraph {
	g := partitionGraph{nodes: n}
	for i := 0; i+1 < n; i++ {
		g.edges = append(g.edges, partitionEdge{a: i, b: i + 1, w: 1})
	}
	return g
}

// partitionFixtures are the graphs the tentpole cares about: paper
// chains plus the mesh/torus fabrics the bench workloads run on.
var partitionFixtures = []struct {
	name string
	g    partitionGraph
}{
	{"chain-5", chainGraph(5)},
	{"chain-16", chainGraph(16)},
	{"mesh-4x4", gridGraph(4, 4, false)},
	{"mesh-8x8", gridGraph(8, 8, false)},
	{"torus-4x4", gridGraph(4, 4, true)},
	{"torus-16x16", gridGraph(16, 16, true)},
}

// TestGraphCutBalanceBound: with unit node weights, no partition may
// exceed the ceiling of the fair share.
func TestGraphCutBalanceBound(t *testing.T) {
	for _, fx := range partitionFixtures {
		for _, parts := range []int{2, 3, 4, 8} {
			if parts > fx.g.nodes {
				continue
			}
			assign, err := graphCut(fx.g, parts)
			if err != nil {
				t.Fatalf("%s p=%d: %v", fx.name, parts, err)
			}
			if len(assign) != fx.g.nodes {
				t.Fatalf("%s p=%d: assigned %d of %d nodes", fx.name, parts, len(assign), fx.g.nodes)
			}
			sizes := make([]int, parts)
			for _, p := range assign {
				sizes[p]++
			}
			bound := (fx.g.nodes + parts - 1) / parts
			for p, sz := range sizes {
				if sz == 0 {
					t.Errorf("%s p=%d: partition %d is empty", fx.name, parts, p)
				}
				if sz > bound {
					t.Errorf("%s p=%d: partition %d holds %d nodes, balance bound %d (sizes %v)",
						fx.name, parts, p, sz, bound, sizes)
				}
			}
		}
	}
}

// TestGraphCutBeatsOrMatchesSupernode: the graph-cut partitioner's cut
// weight must never exceed the by-index split's on any fixture.
func TestGraphCutBeatsOrMatchesSupernode(t *testing.T) {
	for _, fx := range partitionFixtures {
		for _, parts := range []int{2, 4, 8} {
			if parts > fx.g.nodes {
				continue
			}
			gc, err := graphCut(fx.g, parts)
			if err != nil {
				t.Fatalf("%s p=%d graph-cut: %v", fx.name, parts, err)
			}
			sn := contiguous(fx.g.nodes, parts)
			_, gcW := fx.g.cutOf(gc)
			_, snW := fx.g.cutOf(sn)
			if gcW > snW {
				t.Errorf("%s p=%d: graph-cut weight %.3f exceeds by-index %.3f",
					fx.name, parts, gcW, snW)
			}
		}
	}
}

// TestGraphCutExploitsTopology: on a chain whose node indices are not
// in physical order, the by-index split cuts several links while the
// graph-cut partitioner finds the single-link cut.
func TestGraphCutExploitsTopology(t *testing.T) {
	// Physical chain 0-2-4-1-3-5: indices interleave the two halves.
	g := partitionGraph{nodes: 6, edges: []partitionEdge{
		{a: 0, b: 2, w: 1}, {a: 2, b: 4, w: 1}, {a: 4, b: 1, w: 1},
		{a: 1, b: 3, w: 1}, {a: 3, b: 5, w: 1},
	}}
	gc, err := graphCut(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	sn := contiguous(g.nodes, 2)
	gcL, _ := g.cutOf(gc)
	snL, _ := g.cutOf(sn)
	if gcL != 1 {
		t.Errorf("graph-cut cut %d links on the interleaved chain, want 1 (assign %v)", gcL, gc)
	}
	if snL != 3 {
		t.Errorf("by-index cut %d links, fixture expects 3", snL)
	}
}

// TestGraphCutPrefersCheapEdges: a heterogeneous chain with one
// low-affinity (slow) link should be cut at that link.
func TestGraphCutPrefersCheapEdges(t *testing.T) {
	g := partitionGraph{nodes: 6, edges: []partitionEdge{
		{a: 0, b: 1, w: 1}, {a: 1, b: 2, w: 1}, {a: 2, b: 3, w: 0.1},
		{a: 3, b: 4, w: 1}, {a: 4, b: 5, w: 1},
	}}
	assign, err := graphCut(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if links, w := g.cutOf(assign); links != 1 || w > 0.1+1e-9 {
		t.Errorf("cut %d links weight %.3f, want the single 0.1 edge (assign %v)", links, w, assign)
	}
}

// TestPartitionersDeterministic: identical inputs must yield identical
// assignments — parallel runs are reproduced across processes from the
// topology alone.
func TestPartitionersDeterministic(t *testing.T) {
	for _, fx := range partitionFixtures {
		a1, err := graphCut(fx.g, 4)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		a2, _ := graphCut(fx.g, 4)
		if !reflect.DeepEqual(a1, a2) {
			t.Errorf("%s: graph-cut not deterministic", fx.name)
		}
	}
}

// TestGraphCutChainMatchesSupernode: on an in-order chain the greedy
// growth degenerates to the contiguous split, keeping the paper-layout
// behavior byte-for-byte.
func TestGraphCutChainMatchesSupernode(t *testing.T) {
	g := chainGraph(5)
	gc, err := graphCut(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	sn := contiguous(g.nodes, 2)
	if !reflect.DeepEqual(gc, sn) {
		t.Errorf("chain-5 p=2: graph-cut %v, by-index %v", gc, sn)
	}
}

// TestPartitionArgErrors: degenerate shapes are rejected.
func TestPartitionArgErrors(t *testing.T) {
	if _, err := graphCut(chainGraph(2), 3); err == nil {
		t.Error("3 partitions over 2 nodes accepted")
	}
	if _, err := graphCut(chainGraph(2), 0); err == nil {
		t.Error("0 partitions accepted")
	}
	bad := partitionGraph{nodes: 2, edges: []partitionEdge{{a: 0, b: 7, w: 1}}}
	if _, err := graphCut(bad, 2); err == nil {
		t.Error("out-of-range edge accepted")
	}
}
