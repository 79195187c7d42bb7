package mapping

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/instance"
	"repro/internal/platform"
)

// requireEqualState fails unless got's mapping state compares exactly
// equal (==, not approximately) to want's: assignments, processors,
// adjacency lists, refcounts, download tables and every load query. This
// is the journal contract: Rollback(mark) must restore the state a Clone
// taken at Checkpoint time captured.
func requireEqualState(t testing.TB, ctx string, got, want *Mapping) {
	t.Helper()
	if len(got.Procs) != len(want.Procs) {
		t.Fatalf("%s: %d processors, want %d", ctx, len(got.Procs), len(want.Procs))
	}
	for p := range want.Procs {
		if got.Procs[p] != want.Procs[p] {
			t.Fatalf("%s: processor %d = %+v, want %+v", ctx, p, got.Procs[p], want.Procs[p])
		}
	}
	if len(got.Assign) != len(want.Assign) {
		t.Fatalf("%s: %d assignments, want %d", ctx, len(got.Assign), len(want.Assign))
	}
	for op := range want.Assign {
		if got.Assign[op] != want.Assign[op] {
			t.Fatalf("%s: operator %d on %d, want %d", ctx, op, got.Assign[op], want.Assign[op])
		}
	}
	for p := range want.Procs {
		g, w := got.opsOn[p], want.opsOn[p]
		if len(g) != len(w) {
			t.Fatalf("%s: opsOn[%d] = %v, want %v", ctx, p, g, w)
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: opsOn[%d] = %v, want %v", ctx, p, g, w)
			}
		}
	}
	if len(got.objRef) != len(want.objRef) {
		t.Fatalf("%s: objRef length %d, want %d", ctx, len(got.objRef), len(want.objRef))
	}
	for i := range want.objRef {
		if got.objRef[i] != want.objRef[i] {
			t.Fatalf("%s: objRef[%d] = %d, want %d", ctx, i, got.objRef[i], want.objRef[i])
		}
	}
	for p := range want.Procs {
		g, w := got.DL[p], want.DL[p]
		if len(g) != len(w) {
			t.Fatalf("%s: DL[%d] = %v, want %v", ctx, p, g, w)
		}
		for k, v := range w {
			if gv, ok := g[k]; !ok || gv != v {
				t.Fatalf("%s: DL[%d] = %v, want %v", ctx, p, g, w)
			}
		}
	}
	if g, w := got.Cost(), want.Cost(); g != w {
		t.Fatalf("%s: cost %v, want %v", ctx, g, w)
	}
	for p := range want.Procs {
		if g, w := got.ComputeLoad(p), want.ComputeLoad(p); g != w {
			t.Fatalf("%s: ComputeLoad(%d) %v, want %v", ctx, p, g, w)
		}
		if g, w := got.NICLoad(p), want.NICLoad(p); g != w {
			t.Fatalf("%s: NICLoad(%d) %v, want %v", ctx, p, g, w)
		}
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariants after rollback: %v", ctx, err)
	}
}

// journalDriver mutates a journaled mapping with the full move vocabulary
// while keeping a stack of (mark, clone) pairs; popping a level rolls the
// journal back and requires exact equality with the clone. Shared by the
// differential property test and the fuzz target.
type journalDriver struct {
	t     testing.TB
	in    *instance.Instance
	m     *Mapping
	cfgs  []platform.Config
	marks []Mark
	snaps []*Mapping
	steps int
}

func newJournalDriver(t testing.TB, in *instance.Instance) *journalDriver {
	d := &journalDriver{t: t, in: in, m: New(in)}
	d.m.SetJournal(true)
	cat := in.Platform.Catalog
	for ci := range cat.CPUs {
		for ni := range cat.NICs {
			d.cfgs = append(d.cfgs, platform.Config{CPU: ci, NIC: ni})
		}
	}
	return d
}

// mutate applies one of the journaled mutations, chosen by action.
func (d *journalDriver) mutate(action int, r *rand.Rand) {
	m, in := d.m, d.in
	n := in.Tree.NumOps()
	op := r.Intn(n)
	alive := AliveList(m)
	pick := func() int { return alive[r.Intn(len(alive))] }
	switch action % 9 {
	case 0:
		m.Buy(d.cfgs[r.Intn(len(d.cfgs))])
	case 1: // sell a random empty processor, if any
		for _, p := range alive {
			if m.NumOpsOn(p) == 0 {
				m.Sell(p)
				break
			}
		}
	case 2:
		if len(alive) > 0 {
			m.Place(op, pick())
		}
	case 3:
		m.Unplace(op)
	case 4:
		if len(alive) > 0 {
			m.TryPlace(pick(), op)
		}
	case 5:
		if len(alive) >= 2 {
			m.MoveAll(pick(), pick())
		}
	case 6: // select a server for a random needed (or arbitrary) object
		if len(alive) > 0 {
			p := pick()
			k := r.Intn(in.NumTypes)
			if needed := m.NeededObjects(p); len(needed) > 0 {
				k = needed[r.Intn(len(needed))]
			}
			if holders := in.Holders[k]; len(holders) > 0 {
				m.SelectServer(p, k, holders[r.Intn(len(holders))])
			}
		}
	case 7:
		if len(alive) > 0 {
			m.SetConfig(pick(), d.cfgs[r.Intn(len(d.cfgs))])
		}
	case 8:
		m.ClearDownloads()
	}
	d.steps++
}

func (d *journalDriver) push() {
	d.marks = append(d.marks, d.m.Checkpoint())
	d.snaps = append(d.snaps, d.m.Clone())
	if err := d.m.CheckInvariants(); err != nil {
		d.t.Fatalf("step %d: invariants at checkpoint: %v", d.steps, err)
	}
}

func (d *journalDriver) pop() {
	if len(d.marks) == 0 {
		return
	}
	top := len(d.marks) - 1
	d.m.Rollback(d.marks[top])
	requireEqualState(d.t, fmt.Sprintf("step %d rollback to mark %d", d.steps, top), d.m, d.snaps[top])
	d.marks, d.snaps = d.marks[:top], d.snaps[:top]
}

func (d *journalDriver) commit() {
	d.m.CommitJournal()
	// Every outstanding mark is invalidated; the current state is the new
	// baseline.
	d.marks, d.snaps = d.marks[:0], d.snaps[:0]
}

// TestJournalRollbackMatchesClone is the differential property test of
// the move journal: random mutation sequences with nested checkpoints,
// where every rollback must restore exactly the state a Clone captured at
// the mark, across instance sizes and seeds.
func TestJournalRollbackMatchesClone(t *testing.T) {
	for _, n := range []int{1, 4, 12, 40} {
		for seed := int64(1); seed <= 4; seed++ {
			in := instance.Generate(instance.Config{NumOps: n, Alpha: 0.9}, seed)
			r := rand.New(rand.NewSource(seed*1000 + int64(n)))
			d := newJournalDriver(t, in)
			d.push() // empty-state mark: the final pop rolls everything back
			for step := 0; step < 400; step++ {
				switch x := r.Intn(20); {
				case x < 2 && len(d.marks) < 6:
					d.push()
				case x == 2:
					d.pop()
				case x == 3 && len(d.marks) == 0:
					d.commit()
				default:
					d.mutate(r.Intn(9), r)
				}
			}
			for len(d.marks) > 0 {
				d.pop()
			}
		}
	}
}

// TestJournalOffTryPlaceUnchanged pins that a mapping with the journal
// off never records anything (the default constructive path pays zero).
func TestJournalOffTryPlaceUnchanged(t *testing.T) {
	in := fixedInstance()
	m := New(in)
	p := m.Buy(bestConfig(in))
	if !m.TryPlace(p, 0) {
		t.Fatal("placement must fit")
	}
	if len(m.journal) != 0 || m.Journaling() {
		t.Fatalf("journal recorded %d records while off", len(m.journal))
	}
	panicked := func() (p any) {
		defer func() { p = recover() }()
		m.Checkpoint()
		return nil
	}()
	if panicked == nil {
		t.Fatal("Checkpoint without SetJournal(true) must panic")
	}
}

// TestJournalSteadyStateAllocs pins the zero-allocation contract of the
// checkpoint/rollback cycle once the record slice has grown.
func TestJournalSteadyStateAllocs(t *testing.T) {
	in := instance.Generate(instance.Config{NumOps: 30, Alpha: 0.9}, 3)
	m := New(in)
	m.SetJournal(true)
	p := m.Buy(in.Platform.Catalog.MostExpensive())
	for op := 0; op < 30; op++ {
		m.Place(op, p)
	}
	m.CommitJournal()
	cycle := func() {
		mark := m.Checkpoint()
		q := m.Buy(in.Platform.Catalog.MostExpensive())
		for op := 0; op < 10; op++ {
			m.TryPlace(q, op)
		}
		m.SetConfig(q, platform.Config{})
		m.Rollback(mark)
	}
	cycle() // warm up scratch and the record slice
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("checkpoint/rollback cycle allocates %v/op, want 0", allocs)
	}
}

// FuzzJournalRollback lets the fuzzer steer the mutation/checkpoint
// program directly: each program byte either pushes a checkpoint, pops
// one (rollback + exact-equality check against the clone), commits, or
// applies one mutation, with argument choice from a derived PRNG.
func FuzzJournalRollback(f *testing.F) {
	f.Add(int64(1), uint8(8), []byte{0, 1, 2, 9, 3, 4, 10, 5, 6, 7, 8, 9, 2, 2, 10, 11, 0})
	f.Add(int64(7), uint8(15), []byte{9, 0, 2, 2, 9, 4, 5, 10, 6, 8, 10})
	f.Add(int64(3), uint8(3), []byte{9, 9, 9, 2, 10, 2, 10, 2, 10})
	f.Fuzz(func(t *testing.T, seed int64, n uint8, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		in := instance.Generate(instance.Config{
			NumOps: 1 + int(n%24), NumTypes: 4, Alpha: 0.9,
		}, seed%64)
		r := rand.New(rand.NewSource(seed))
		d := newJournalDriver(t, in)
		d.push()
		for _, b := range prog {
			switch action := int(b % 12); action {
			case 9:
				if len(d.marks) < 8 {
					d.push()
				}
			case 10:
				d.pop()
			case 11:
				if len(d.marks) == 0 {
					d.commit()
				}
			default:
				d.mutate(action, r)
			}
		}
		for len(d.marks) > 0 {
			d.pop()
		}
	})
}
