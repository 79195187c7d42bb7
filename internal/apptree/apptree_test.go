package apptree

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// paperTree builds the "standard tree" of the paper's Figure 1(a):
// n4 is the root with children n5 and n3; n5 has children n2 and n1;
// n2 reads o1; n1 reads o1 and o2; n3 reads o2 and o3.
func paperTree() *Tree {
	t := &Tree{}
	// indices: 0=n1, 1=n2, 2=n3, 3=n4(root), 4=n5
	t.Ops = make([]Operator, 5)
	t.Root = 3
	t.Ops[3] = Operator{Parent: NoParent, ChildOps: []int{4, 2}}
	t.Ops[4] = Operator{Parent: 3, ChildOps: []int{1, 0}}
	t.Ops[2] = Operator{Parent: 3}
	t.Ops[1] = Operator{Parent: 4}
	t.Ops[0] = Operator{Parent: 4}
	addLeaf := func(op, obj int) {
		li := len(t.Leaves)
		t.Leaves = append(t.Leaves, Leaf{Object: obj, Parent: op})
		t.Ops[op].Leaves = append(t.Ops[op].Leaves, li)
	}
	addLeaf(1, 0) // n2: o1
	addLeaf(0, 0) // n1: o1
	addLeaf(0, 1) // n1: o2
	addLeaf(2, 1) // n3: o2
	addLeaf(2, 2) // n3: o3
	return t
}

func TestPaperTreeValid(t *testing.T) {
	tr := paperTree()
	if err := tr.Validate(); err != nil {
		t.Fatalf("paper tree invalid: %v", err)
	}
	if tr.NumOps() != 5 || tr.NumLeaves() != 5 {
		t.Fatalf("got %d ops, %d leaves", tr.NumOps(), tr.NumLeaves())
	}
}

func TestALOperators(t *testing.T) {
	tr := paperTree()
	al := tr.ALOperatorsInto([]int{9, 9, 9, 9, 9}) // stale contents are dropped
	want := []int{0, 1, 2}
	if len(al) != len(want) {
		t.Fatalf("al-operators = %v, want %v", al, want)
	}
	for i := range al {
		if al[i] != want[i] {
			t.Fatalf("al-operators = %v, want %v", al, want)
		}
	}
	if tr.IsAL(3) || tr.IsAL(4) {
		t.Fatal("n4/n5 must not be al-operators")
	}
}

func TestLeafObjects(t *testing.T) {
	tr := paperTree()
	got := tr.LeafObjects(0)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Leaf(n1) = %v, want [0 1]", got)
	}
	if len(tr.LeafObjects(4)) != 0 {
		t.Fatal("n5 should need no objects")
	}
}

func TestLeafObjectsDedup(t *testing.T) {
	tr := &Tree{}
	tr.Ops = []Operator{{Parent: NoParent}}
	tr.Root = 0
	tr.Leaves = []Leaf{{Object: 3, Parent: 0}, {Object: 3, Parent: 0}}
	tr.Ops[0].Leaves = []int{0, 1}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.LeafObjects(0); len(got) != 1 || got[0] != 3 {
		t.Fatalf("duplicate leaves not deduped: %v", got)
	}
}

func TestPopularity(t *testing.T) {
	tr := paperTree()
	pop := tr.PopularityInto(4, []int{7, 7}) // grown and zeroed
	// o1 needed by n1,n2; o2 by n1,n3; o3 by n3; type 3 unused.
	want := []int{2, 2, 1, 0}
	for k := range want {
		if pop[k] != want[k] {
			t.Fatalf("popularity = %v, want %v", pop, want)
		}
	}
}

func TestBottomUpOrder(t *testing.T) {
	tr := paperTree()
	pos := map[int]int{}
	for idx, op := range tr.BottomUp() {
		pos[op] = idx
	}
	for i, op := range tr.Ops {
		for _, c := range op.ChildOps {
			if pos[c] >= pos[i] {
				t.Fatalf("child %d not before parent %d in bottom-up order", c, i)
			}
		}
	}
	if bu := tr.BottomUp(); bu[len(bu)-1] != tr.Root {
		t.Fatalf("bottom-up order must end at root, got %v", bu)
	}
}

func TestEdges(t *testing.T) {
	tr := paperTree()
	edges := tr.EdgesInto(nil)
	if len(edges) != 4 {
		t.Fatalf("got %d edges, want 4", len(edges))
	}
	seen := map[Edge]bool{}
	for _, e := range edges {
		seen[e] = true
	}
	for _, want := range []Edge{{3, 4}, {3, 2}, {4, 1}, {4, 0}} {
		if !seen[want] {
			t.Fatalf("missing edge %v in %v", want, edges)
		}
	}
}

func TestDerivePaperTree(t *testing.T) {
	tr := paperTree()
	sizes := []float64{10, 20, 30} // o1, o2, o3
	w, delta := tr.Derive(sizes, 1.0)
	// n1 = o1+o2 = 30; n2 = o1 = 10; n3 = o2+o3 = 50;
	// n5 = n1+n2 = 40; n4 = n5+n3 = 90.
	wantDelta := map[int]float64{0: 30, 1: 10, 2: 50, 4: 40, 3: 90}
	for i, want := range wantDelta {
		if math.Abs(delta[i]-want) > 1e-9 {
			t.Fatalf("delta[%d] = %v, want %v", i, delta[i], want)
		}
		if math.Abs(w[i]-want) > 1e-9 { // alpha=1 => w == delta
			t.Fatalf("w[%d] = %v, want %v", i, w[i], want)
		}
	}
	w2, _ := tr.Derive(sizes, 2.0)
	if math.Abs(w2[3]-90*90) > 1e-6 {
		t.Fatalf("w[root] at alpha=2 = %v, want %v", w2[3], 90.0*90)
	}
}

func TestRandomTreeInvariants(t *testing.T) {
	r := rng.New(42)
	for _, n := range []int{1, 2, 3, 10, 60, 140} {
		tr := Random(r, n, 15)
		if err := tr.Validate(); err != nil {
			t.Fatalf("Random(%d) invalid: %v", n, err)
		}
		if tr.NumOps() != n {
			t.Fatalf("Random(%d) has %d ops", n, tr.NumOps())
		}
		if tr.NumLeaves() != n+1 {
			t.Fatalf("Random(%d) has %d leaves, want %d", n, tr.NumLeaves(), n+1)
		}
		for _, l := range tr.Leaves {
			if l.Object < 0 || l.Object >= 15 {
				t.Fatalf("object type out of range: %d", l.Object)
			}
		}
	}
}

func TestRandomTreeDeterministic(t *testing.T) {
	a := Random(rng.New(7), 25, 15)
	b := Random(rng.New(7), 25, 15)
	if a.DOT("x") != b.DOT("x") {
		t.Fatal("same seed produced different trees")
	}
	c := Random(rng.New(8), 25, 15)
	if a.DOT("x") == c.DOT("x") {
		t.Fatal("different seeds produced identical trees (suspicious)")
	}
}

func TestRandomTreeProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		nn := int(n%100) + 1
		tr := Random(rng.New(seed), nn, 15)
		if tr.Validate() != nil || tr.NumOps() != nn || tr.NumLeaves() != nn+1 {
			return false
		}
		// binary-tree constraint |Leaf(i)| + |Ch(i)| <= 2
		for i := range tr.Ops {
			if len(tr.Ops[i].ChildOps)+len(tr.Ops[i].Leaves) > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLeftDeep(t *testing.T) {
	tr := LeftDeep([]int{0, 0, 2, 1, 1}) // paper Fig 1(b): o1,o1,o3,o2,o2 bottom-up
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumOps() != 4 || tr.NumLeaves() != 5 {
		t.Fatalf("left-deep: %d ops, %d leaves", tr.NumOps(), tr.NumLeaves())
	}
	// Every operator is an al-operator in a left-deep tree.
	if got := len(tr.ALOperatorsInto(nil)); got != 4 {
		t.Fatalf("left-deep should have 4 al-operators, got %d", got)
	}
	// A chain: the bottom operator (index 0) is numOps-1 edges below the
	// root.
	depth := 0
	for op := 0; tr.Ops[op].Parent != NoParent; op = tr.Ops[op].Parent {
		depth++
	}
	if depth != 3 {
		t.Fatalf("left-deep depth = %d, want 3", depth)
	}
}

func TestLeftDeepPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short object list")
		}
	}()
	LeftDeep([]int{1})
}

func TestDOTOutput(t *testing.T) {
	tr := paperTree()
	dot := tr.DOT("fig1a")
	for _, want := range []string{"digraph", "n4 -> n3", "shape=box", "shape=ellipse"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Tree)
	}{
		{"bad root parent", func(tr *Tree) { tr.Ops[tr.Root].Parent = 0 }},
		{"orphan child", func(tr *Tree) { tr.Ops[4].Parent = 2 }},
		{"too many children", func(tr *Tree) {
			tr.Ops[3].ChildOps = append(tr.Ops[3].ChildOps, 1)
		}},
		{"bad leaf parent", func(tr *Tree) { tr.Leaves[0].Parent = 3 }},
		{"negative object", func(tr *Tree) { tr.Leaves[0].Object = -1 }},
		{"root out of range", func(tr *Tree) { tr.Root = 99 }},
	}
	for _, tc := range cases {
		tr := paperTree()
		tc.mutate(tr)
		if tr.Validate() == nil {
			t.Fatalf("%s: corruption not detected", tc.name)
		}
	}
}

func TestValidateEmptyTree(t *testing.T) {
	var tr Tree
	if tr.Validate() == nil {
		t.Fatal("empty tree must be invalid")
	}
}

func TestBuilderRandomMatchesRandom(t *testing.T) {
	// A reused Builder must produce trees identical to the one-shot
	// Random across varying sizes (growing and shrinking its storage).
	var b Builder
	for _, n := range []int{1, 7, 40, 3, 60, 2} {
		want := Random(rand.New(rand.NewSource(int64(n)*17+1)), n, 5)
		got := b.Random(rand.New(rand.NewSource(int64(n)*17+1)), n, 5)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("n=%d: builder tree differs from Random's", n)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBuilderRandomAllocFree(t *testing.T) {
	var b Builder
	r := rand.New(rand.NewSource(1))
	b.Random(r, 50, 5) // warm the arenas
	allocs := testing.AllocsPerRun(20, func() {
		b.Random(r, 50, 5)
	})
	if allocs > 0 {
		t.Fatalf("warmed builder allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestRandomPreorderIndices(t *testing.T) {
	// DeriveInto's reverse-pass fast path relies on Random indexing every
	// operator before its children.
	for seed := int64(1); seed <= 20; seed++ {
		tr := Random(rand.New(rand.NewSource(seed)), 30, 4)
		for i, op := range tr.Ops {
			for _, c := range op.ChildOps {
				if c <= i {
					t.Fatalf("seed %d: operator %d has child %d <= its own index", seed, i, c)
				}
			}
		}
	}
}

func TestDeriveIntoMatchesDerive(t *testing.T) {
	sizes := []float64{3, 5, 8, 2}
	var w, delta []float64
	// Random trees take the reverse-pass fast path; LeftDeep trees index
	// children before parents and must hit the fallback.
	trees := []*Tree{
		Random(rand.New(rand.NewSource(3)), 25, 4),
		LeftDeep([]int{0, 1, 2, 3, 1}),
	}
	for ti, tr := range trees {
		for _, alpha := range []float64{0.9, 1, 1.7} {
			wantW, wantD := tr.Derive(sizes, alpha)
			w, delta = tr.DeriveInto(sizes, alpha, w, delta)
			if !reflect.DeepEqual(wantW, w) || !reflect.DeepEqual(wantD, delta) {
				t.Fatalf("tree %d alpha %g: DeriveInto differs from Derive", ti, alpha)
			}
		}
	}
}
