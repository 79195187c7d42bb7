// Package apptree models the application side of the in-network stream
// processing problem of Benoit et al. (IPDPS/APDCM 2009): a binary tree
// whose internal nodes are operators and whose leaves are occurrences of
// basic objects, continuously updated at data servers.
//
// Following the paper's notation, for an operator n_i:
//
//   - Leaf(i) is the index set of basic objects its leaf children need,
//   - Ch(i) is the index set of its operator children,
//   - Par(i) is its parent operator (if any),
//   - |Leaf(i)| + |Ch(i)| <= 2 because the tree is binary,
//   - an operator with at least one leaf child is an "al-operator"
//     ("almost leaf").
//
// The package is purely structural: object sizes, download frequencies
// and the computation exponent alpha live in package instance, which
// derives per-operator work w_i and output size delta_i from a Tree.
package apptree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/xslice"
)

// NoParent marks the root operator's Parent field.
const NoParent = -1

// Leaf is one occurrence of a basic object as a tree leaf. Several leaves
// may reference the same object type (the paper's Figure 1 shows o1 and o2
// appearing twice).
type Leaf struct {
	Object int // basic-object type index, 0-based
	Parent int // operator index owning this leaf
}

// Operator is an internal node of the application tree.
type Operator struct {
	Parent   int   // parent operator index, or NoParent for the root
	ChildOps []int // operator children, in left-to-right order (0..2)
	Leaves   []int // indices into Tree.Leaves of leaf children (0..2)
}

// Tree is a binary operator tree. The zero value is not useful; build
// trees with Random, LeftDeep or NewBuilder.
type Tree struct {
	Ops    []Operator
	Leaves []Leaf
	Root   int
}

// NumOps returns the number of operators (internal nodes).
func (t *Tree) NumOps() int { return len(t.Ops) }

// NumLeaves returns the number of leaf occurrences.
func (t *Tree) NumLeaves() int { return len(t.Leaves) }

// IsAL reports whether operator i is an al-operator, i.e. has at least one
// basic-object leaf child.
func (t *Tree) IsAL(i int) bool { return len(t.Ops[i].Leaves) > 0 }

// ALOperatorsInto returns the indices of all al-operators, in
// increasing order, in a reusable buffer (reset to buf[:0] before
// filling); the placement heuristics call it once per solve.
func (t *Tree) ALOperatorsInto(buf []int) []int {
	out := buf[:0]
	for i := range t.Ops {
		if t.IsAL(i) {
			out = append(out, i)
		}
	}
	return out
}

// LeafObjects returns the sorted de-duplicated set Leaf(i) of basic-object
// types operator i must download.
func (t *Tree) LeafObjects(i int) []int {
	var buf [2]int
	objs := t.LeafObjectsBuf(i, &buf)
	if objs == nil {
		return nil
	}
	return append([]int(nil), objs...)
}

// LeafObjectsBuf is LeafObjects into a caller-provided buffer — a
// binary-tree operator has at most two leaves, so Leaf(i) always fits
// [2]int and hot loops (placement heuristics, PopularityInto) pay no
// allocation. Returns nil for operators without leaf children.
func (t *Tree) LeafObjectsBuf(i int, buf *[2]int) []int {
	n := 0
	for _, li := range t.Ops[i].Leaves {
		k := t.Leaves[li].Object
		if n == 1 && buf[0] == k {
			continue
		}
		buf[n] = k
		n++
	}
	if n == 0 {
		return nil
	}
	if n == 2 && buf[1] < buf[0] {
		buf[0], buf[1] = buf[1], buf[0]
	}
	return buf[:n]
}

// ObjectSet returns the sorted set of distinct basic-object types used
// anywhere in the tree. One exact allocation: gather, sort, dedup in
// place.
func (t *Tree) ObjectSet() []int {
	return t.ObjectSetInto(make([]int, 0, len(t.Leaves)))
}

// ObjectSetInto is ObjectSet into a reusable buffer: gather, sort, dedup
// in place.
func (t *Tree) ObjectSetInto(buf []int) []int {
	out := buf[:0]
	for _, l := range t.Leaves {
		out = append(out, l.Object)
	}
	sort.Ints(out)
	w := 0
	for i, k := range out {
		if i == 0 || k != out[w-1] {
			out[w] = k
			w++
		}
	}
	return out[:w]
}

// PopularityInto returns, for each object type in [0, numTypes), how
// many operators need it (the paper's Object-Grouping "popularity"
// count), in a reusable buffer grown to numTypes and zeroed before
// counting. An operator with two leaves of the same type counts once.
func (t *Tree) PopularityInto(numTypes int, buf []int) []int {
	pop := xslice.Grow(buf, numTypes)
	for k := range pop {
		pop[k] = 0
	}
	var lbuf [2]int
	for i := range t.Ops {
		for _, k := range t.LeafObjectsBuf(i, &lbuf) {
			pop[k]++
		}
	}
	return pop
}

// BottomUp returns the operator indices in a bottom-up topological order:
// every operator appears after all of its operator children.
func (t *Tree) BottomUp() []int {
	// Iterative post-order on an explicit stack: exactly two fixed-size
	// allocations per call instead of a recursive closure.
	order, _ := t.BottomUpInto(make([]int, 0, len(t.Ops)), make([]int, 0, len(t.Ops)))
	return order
}

// BottomUpInto is BottomUp into reusable buffers: out receives the
// post-order and stack backs the traversal (both grown as needed and
// returned for the caller to reuse).
func (t *Tree) BottomUpInto(out, stack []int) (order, stackOut []int) {
	out, stack = out[:0], stack[:0]
	stack = append(stack, t.Root)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		if i >= 0 {
			// First visit: revisit marker, then children (reversed so the
			// leftmost child pops — and therefore emits — first).
			stack[len(stack)-1] = ^i
			cs := t.Ops[i].ChildOps
			for c := len(cs) - 1; c >= 0; c-- {
				stack = append(stack, cs[c])
			}
			continue
		}
		stack = stack[:len(stack)-1]
		out = append(out, ^i)
	}
	return out, stack
}

// Edge is a parent-child pair of operators; it carries the intermediate
// result of the child up to the parent.
type Edge struct {
	Parent, Child int
}

// EdgesInto lists all operator-operator tree edges, sorted by (Parent,
// Child), in a reusable buffer. The order is total, so any correct sort
// yields the one canonical edge list.
func (t *Tree) EdgesInto(buf []Edge) []Edge {
	out := buf[:0]
	for i, op := range t.Ops {
		for _, c := range op.ChildOps {
			out = append(out, Edge{Parent: i, Child: c})
		}
	}
	slices.SortFunc(out, func(a, b Edge) int {
		if a.Parent != b.Parent {
			return a.Parent - b.Parent
		}
		return a.Child - b.Child
	})
	return out
}

// Validate checks the structural invariants of the paper's model and
// returns a descriptive error on the first violation:
//
//   - exactly one root with Parent == NoParent, reachable from Root,
//   - parent/child links are mutually consistent,
//   - every operator has 1..2 children total and |Leaf(i)|+|Ch(i)| <= 2,
//   - every leaf has a valid owning operator,
//   - the structure is a tree (no cycles, all operators reachable).
func (t *Tree) Validate() error {
	n := len(t.Ops)
	if n == 0 {
		return fmt.Errorf("apptree: empty tree")
	}
	if t.Root < 0 || t.Root >= n {
		return fmt.Errorf("apptree: root index %d out of range", t.Root)
	}
	if t.Ops[t.Root].Parent != NoParent {
		return fmt.Errorf("apptree: root %d has parent %d", t.Root, t.Ops[t.Root].Parent)
	}
	for i, op := range t.Ops {
		total := len(op.ChildOps) + len(op.Leaves)
		if total < 1 || total > 2 {
			return fmt.Errorf("apptree: operator %d has %d children, want 1..2", i, total)
		}
		if i != t.Root {
			p := op.Parent
			if p < 0 || p >= n {
				return fmt.Errorf("apptree: operator %d has invalid parent %d", i, p)
			}
			found := false
			for _, c := range t.Ops[p].ChildOps {
				if c == i {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("apptree: operator %d not listed as child of its parent %d", i, p)
			}
		} else if op.Parent != NoParent {
			return fmt.Errorf("apptree: root %d must have NoParent", i)
		}
		for _, c := range op.ChildOps {
			if c < 0 || c >= n {
				return fmt.Errorf("apptree: operator %d has invalid child %d", i, c)
			}
			if t.Ops[c].Parent != i {
				return fmt.Errorf("apptree: child %d of %d has parent %d", c, i, t.Ops[c].Parent)
			}
		}
		for _, li := range op.Leaves {
			if li < 0 || li >= len(t.Leaves) {
				return fmt.Errorf("apptree: operator %d has invalid leaf index %d", i, li)
			}
			if t.Leaves[li].Parent != i {
				return fmt.Errorf("apptree: leaf %d of operator %d has parent %d", li, i, t.Leaves[li].Parent)
			}
		}
	}
	for li, l := range t.Leaves {
		if l.Parent < 0 || l.Parent >= n {
			return fmt.Errorf("apptree: leaf %d has invalid parent %d", li, l.Parent)
		}
		found := false
		for _, x := range t.Ops[l.Parent].Leaves {
			if x == li {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("apptree: leaf %d not listed by its parent %d", li, l.Parent)
		}
		if l.Object < 0 {
			return fmt.Errorf("apptree: leaf %d has negative object type", li)
		}
	}
	// Reachability doubles as a cycle check: in a consistent parent/child
	// structure, a cycle would make some operator unreachable from Root.
	seen := make([]bool, n)
	var visit func(i int) error
	visit = func(i int) error {
		if seen[i] {
			return fmt.Errorf("apptree: operator %d visited twice (cycle)", i)
		}
		seen[i] = true
		for _, c := range t.Ops[i].ChildOps {
			if err := visit(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(t.Root); err != nil {
		return err
	}
	for i, s := range seen {
		if !s {
			return fmt.Errorf("apptree: operator %d unreachable from root", i)
		}
	}
	return nil
}

// Random generates a uniformly-shaped random full binary tree with exactly
// numOps operators (hence numOps+1 leaves), each leaf referencing a basic
// object type drawn uniformly from [0, numTypes). numOps must be >= 1 and
// numTypes >= 1. This follows the paper's simulation methodology:
// "randomly generated binary operator trees ... all leaves correspond to
// basic objects, and each basic object is chosen randomly among 15
// different types".
//
// Operators are indexed in construction pre-order, so every operator's
// index is smaller than its children's — the invariant DeriveInto's fast
// path relies on (see TestRandomPreorderIndices).
func Random(r *rand.Rand, numOps, numTypes int) *Tree {
	// The one-shot builder is discarded, making the returned tree the sole
	// owner of its storage.
	return new(Builder).Random(r, numOps, numTypes)
}

// Builder builds Random trees on reusable storage: the operator and leaf
// tables are grow-only, and every operator's ChildOps/Leaves slice is
// carved out of two shared arenas (a binary-tree operator has at most two
// children total), so steady-state tree generation does not allocate.
// The returned *Tree aliases the builder's storage and is valid only
// until the next Random call; instance.Generator owns one Builder per
// sweep worker.
type Builder struct {
	tree                  Tree
	childArena, leafArena []int
}

// Random is apptree.Random on the builder's reusable storage. It consumes
// exactly the same stream from r, so shapes are byte-identical to the
// package-level function's.
func (b *Builder) Random(r *rand.Rand, numOps, numTypes int) *Tree {
	if numOps < 1 {
		panic("apptree: Random needs numOps >= 1")
	}
	if numTypes < 1 {
		panic("apptree: Random needs numTypes >= 1")
	}
	if cap(b.tree.Ops) < numOps {
		b.tree.Ops = make([]Operator, 0, numOps)
	} else {
		b.tree.Ops = b.tree.Ops[:0]
	}
	if cap(b.tree.Leaves) < numOps+1 {
		b.tree.Leaves = make([]Leaf, 0, numOps+1)
	} else {
		b.tree.Leaves = b.tree.Leaves[:0]
	}
	if cap(b.childArena) < 2*numOps {
		b.childArena = make([]int, 2*numOps)
		b.leafArena = make([]int, 2*numOps)
	}
	b.tree.Root = b.build(r, numTypes, numOps, NoParent)
	return &b.tree
}

// build creates a subtree containing n operators and returns its root
// operator index; a zero-operator side becomes a basic-object leaf.
func (b *Builder) build(r *rand.Rand, numTypes, n, parent int) int {
	t := &b.tree
	id := len(t.Ops)
	t.Ops = append(t.Ops, Operator{
		Parent:   parent,
		ChildOps: b.childArena[2*id : 2*id : 2*id+2],
		Leaves:   b.leafArena[2*id : 2*id : 2*id+2],
	})
	nl := r.Intn(n) // operators in the left subtree: 0..n-1
	nr := n - 1 - nl
	for _, sub := range [2]int{nl, nr} {
		if sub == 0 {
			li := len(t.Leaves)
			t.Leaves = append(t.Leaves, Leaf{Object: r.Intn(numTypes), Parent: id})
			t.Ops[id].Leaves = append(t.Ops[id].Leaves, li)
		} else {
			c := b.build(r, numTypes, sub, id)
			t.Ops[id].ChildOps = append(t.Ops[id].ChildOps, c)
		}
	}
	return id
}

// LeftDeep builds the paper's Figure 1(b) shape: a left-deep tree whose
// i-th operator (from the bottom) combines the running intermediate result
// with one basic object. objects lists the object type of each operator's
// leaf from the bottom up; the bottom-most operator gets two leaves
// (objects[0] and objects[1]), so len(objects) must be >= 2 and the tree
// has len(objects)-1 operators.
func LeftDeep(objects []int) *Tree {
	if len(objects) < 2 {
		panic("apptree: LeftDeep needs at least two objects")
	}
	t := &Tree{}
	numOps := len(objects) - 1
	// Operator numOps-1 is the bottom, operator 0 the root, matching the
	// figure where n1 is at the bottom; we instead index root last for
	// construction simplicity and fix parents as we go.
	prev := -1
	for i := 0; i < numOps; i++ {
		id := len(t.Ops)
		t.Ops = append(t.Ops, Operator{Parent: NoParent})
		if i == 0 {
			for j := 0; j < 2; j++ {
				li := len(t.Leaves)
				t.Leaves = append(t.Leaves, Leaf{Object: objects[j], Parent: id})
				t.Ops[id].Leaves = append(t.Ops[id].Leaves, li)
			}
		} else {
			t.Ops[id].ChildOps = append(t.Ops[id].ChildOps, prev)
			t.Ops[prev].Parent = id
			li := len(t.Leaves)
			t.Leaves = append(t.Leaves, Leaf{Object: objects[i+1], Parent: id})
			t.Ops[id].Leaves = append(t.Ops[id].Leaves, li)
		}
		prev = id
	}
	t.Root = prev
	return t
}

// DOT renders the tree in Graphviz dot format (operators as boxes, basic
// objects as ellipses labelled o<k+1> like the paper's Figure 1).
func (t *Tree) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=BT;\n", name)
	for i := range t.Ops {
		fmt.Fprintf(&b, "  n%d [shape=box,label=\"n%d\"];\n", i, i+1)
	}
	for li, l := range t.Leaves {
		fmt.Fprintf(&b, "  o%d [shape=ellipse,label=\"o%d\"];\n", li, l.Object+1)
	}
	for i, op := range t.Ops {
		for _, c := range op.ChildOps {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", c, i)
		}
		for _, li := range op.Leaves {
			fmt.Fprintf(&b, "  o%d -> n%d;\n", li, i)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Derive computes, bottom-up, the per-operator output sizes delta_i and
// work amounts w_i given the basic-object sizes (MB, indexed by object
// type) and the computation exponent alpha:
//
//	delta_i = delta_left + delta_right
//	w_i     = (delta_left + delta_right)^alpha
//
// where each child contribution is the object size for a leaf child and
// delta_child for an operator child. This is exactly the paper's
// simulation methodology (Section 5).
func (t *Tree) Derive(sizes []float64, alpha float64) (w, delta []float64) {
	w = make([]float64, len(t.Ops))
	delta = make([]float64, len(t.Ops))
	for _, i := range t.BottomUp() {
		t.deriveOp(i, sizes, alpha, w, delta)
	}
	return w, delta
}

// deriveOp computes delta_i and w_i assuming the children are done. The
// summation order (operator children, then leaves) is shared by Derive
// and DeriveInto so both produce bit-identical values.
func (t *Tree) deriveOp(i int, sizes []float64, alpha float64, w, delta []float64) {
	sum := 0.0
	for _, c := range t.Ops[i].ChildOps {
		sum += delta[c]
	}
	for _, li := range t.Ops[i].Leaves {
		sum += sizes[t.Leaves[li].Object]
	}
	delta[i] = sum
	w[i] = math.Pow(sum, alpha)
}

// DeriveInto is Derive reusing caller-provided buffers (grown as needed).
// Trees indexed in pre-order — every operator before its children, as
// Random and Builder.Random guarantee — are derived in one reverse pass
// with zero allocations; arbitrary trees fall back to the allocating
// bottom-up traversal.
func (t *Tree) DeriveInto(sizes []float64, alpha float64, w, delta []float64) ([]float64, []float64) {
	n := len(t.Ops)
	w, delta = xslice.Grow(w, n), xslice.Grow(delta, n)
	for i := range t.Ops {
		for _, c := range t.Ops[i].ChildOps {
			if c < i {
				ww, dd := t.Derive(sizes, alpha)
				copy(w, ww)
				copy(delta, dd)
				return w, delta
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		t.deriveOp(i, sizes, alpha, w, delta)
	}
	return w, delta
}
