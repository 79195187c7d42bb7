package experiments

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// cellsSchema identifies the shard cell-file layout; bump on
// incompatible changes so stale shard outputs cannot be merged silently.
const cellsSchema = "streamalloc-cells/v1"

// errCellInfeasible marks a decoded cell that recorded no feasible
// mapping; the concrete solve error is not serialized (folds only need
// feasibility).
var errCellInfeasible = errors.New("experiments: cell recorded as infeasible")

// ShardCells is one shard's worth of one figure's raw sweep cells — the
// unit of work a distributed figure run ships between machines. Each
// entry of Units parallels the figure definition's sweep units and
// holds that unit's shard cells in full-grid index order.
type ShardCells struct {
	FigID    string
	Shard    Shard
	Seeds    int
	BaseSeed int64
	Units    [][]Cell
}

// RunFigureShard computes the figure's cells belonging to one shard.
// Per-cell seeds are pure functions of grid coordinates, so the union
// of all shards reproduces the unsharded run cell-for-cell; MergeFigure
// folds that union into a byte-identical Figure.
func RunFigureShard(ctx context.Context, id string, cfg Config, sh Shard) (*ShardCells, error) {
	def, err := figDefByID(id)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := sh.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	out := &ShardCells{FigID: id, Shard: sh.normalized(), Seeds: cfg.Seeds, BaseSeed: cfg.BaseSeed}
	for _, u := range def.units {
		g := u.grid(cfg)
		g.Shard = sh
		cells, err := g.Cells(ctx)
		if err != nil {
			return nil, err
		}
		out.Units = append(out.Units, cells)
	}
	return out, nil
}

// MergeFigure reassembles the full cell grid from every shard's cells
// and folds it into the Figure. The parts must cover every shard index
// exactly once, and each must pass Check for its own shard, so every
// cell of every unit is present exactly once. The result is
// byte-identical (Figure.Dat) to an unsharded BuildFigure run.
func MergeFigure(id string, cfg Config, parts []*ShardCells) (*Figure, error) {
	def, err := figDefByID(id)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if len(parts) == 0 {
		return nil, fmt.Errorf("experiments: merge %s: no shard parts", id)
	}
	grids := def.grids(cfg)
	count := parts[0].Shard.normalized().Count
	seenShard := make([]bool, count)
	for _, p := range parts {
		if err := p.Shard.validate(); err != nil {
			return nil, fmt.Errorf("experiments: merge %s: %w", id, err)
		}
		i := p.Shard.normalized().Index
		if err := p.check(id, cfg, grids, Shard{Index: i, Count: count}); err != nil {
			return nil, fmt.Errorf("experiments: merge %s: %w", id, err)
		}
		if seenShard[i] {
			return nil, fmt.Errorf("experiments: merge %s: shard %d supplied twice", id, i)
		}
		seenShard[i] = true
	}
	for i, seen := range seenShard {
		if !seen {
			return nil, fmt.Errorf("experiments: merge %s: shard %d/%d missing", id, i, count)
		}
	}

	fig := def.newFigure()
	for ui, u := range def.units {
		full := make([]Cell, grids[ui].Size())
		for _, p := range parts {
			for _, c := range p.Units[ui] {
				full[c.Index] = c
			}
		}
		fig.Series = append(fig.Series, u.fold(grids[ui], full)...)
	}
	return fig, nil
}

// Check reports whether sc is exactly shard sh of figure id under cfg:
// the figure, shard, seeds and base seed match, there is one cell list
// per sweep unit, and each unit holds exactly the shard's cell indices
// in increasing order. Shards that all pass Check cover the full grid,
// every cell once, so their merge cannot fail.
func (sc *ShardCells) Check(id string, cfg Config, sh Shard) error {
	def, err := figDefByID(id)
	if err != nil {
		return err
	}
	cfg = cfg.withDefaults()
	return sc.check(id, cfg, def.grids(cfg), sh)
}

// check is Check against the figure's already-built unit grids.
func (sc *ShardCells) check(id string, cfg Config, grids []*Grid, sh Shard) error {
	sh = sh.normalized()
	switch {
	case sc.FigID != id:
		return fmt.Errorf("experiments: cells belong to figure %q, want %q", sc.FigID, id)
	case sc.Shard.normalized() != sh:
		return fmt.Errorf("experiments: cells cover shard %v, want %v", sc.Shard, sh)
	case sc.Seeds != cfg.Seeds || sc.BaseSeed != cfg.BaseSeed:
		return fmt.Errorf("experiments: cells ran with seeds=%d base=%d, want seeds=%d base=%d",
			sc.Seeds, sc.BaseSeed, cfg.Seeds, cfg.BaseSeed)
	case len(sc.Units) != len(grids):
		return fmt.Errorf("experiments: cells have %d sweep units, figure %s has %d", len(sc.Units), id, len(grids))
	}
	for ui, g := range grids {
		want := sh.Index // shard sh owns indices sh.Index, sh.Index+sh.Count, ...
		for _, c := range sc.Units[ui] {
			if c.Index != want || want >= g.Size() {
				return fmt.Errorf("experiments: unit %d holds cell %d where shard %v of %d cells owns %d", ui, c.Index, sh, g.Size(), want)
			}
			want += sh.Count
		}
		if want < g.Size() {
			return fmt.Errorf("experiments: unit %d lacks cell %d of shard %v", ui, want, sh)
		}
	}
	return nil
}

// Encode writes the shard cells as a line-oriented text artifact. Costs
// round-trip exactly (strconv 'g' with precision -1), so a merged
// figure is byte-identical to an in-memory one.
func (sc *ShardCells) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	sh := sc.Shard.normalized()
	fmt.Fprintf(bw, "# %s fig=%s shard=%d/%d seeds=%d baseseed=%d units=%d\n",
		cellsSchema, sc.FigID, sh.Index, sh.Count, sc.Seeds, sc.BaseSeed, len(sc.Units))
	fmt.Fprintf(bw, "# unit index seed ok cost procs\n")
	for ui, cells := range sc.Units {
		for i := range cells {
			c := &cells[i]
			ok := 0
			if c.Err == nil {
				ok = 1
			}
			fmt.Fprintf(bw, "%d %d %d %d %s %d\n", ui, c.Index, c.Seed, ok,
				strconv.FormatFloat(c.Cost, 'g', -1, 64), c.Procs)
		}
	}
	return bw.Flush()
}

// DecodeShardCells parses an Encode artifact. Only the fields the
// figure folds consume survive the round trip: index, seed,
// feasibility, cost and processor count (infeasible cells carry the
// errCellInfeasible sentinel).
func DecodeShardCells(r io.Reader) (*ShardCells, error) {
	sc := &ShardCells{}
	scanner := bufio.NewScanner(r)
	if !scanner.Scan() {
		return nil, fmt.Errorf("experiments: empty cells artifact")
	}
	header := scanner.Text()
	var units int
	if _, err := fmt.Sscanf(header, "# "+cellsSchema+" fig=%s shard=%d/%d seeds=%d baseseed=%d units=%d",
		&sc.FigID, &sc.Shard.Index, &sc.Shard.Count, &sc.Seeds, &sc.BaseSeed, &units); err != nil {
		return nil, fmt.Errorf("experiments: bad cells header %q (want %s): %v", header, cellsSchema, err)
	}
	if err := sc.Shard.validate(); err != nil {
		return nil, fmt.Errorf("experiments: bad cells header %q: %w", header, err)
	}
	if units < 0 || units > 64 {
		return nil, fmt.Errorf("experiments: implausible unit count %d", units)
	}
	sc.Units = make([][]Cell, units)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 6 {
			return nil, fmt.Errorf("experiments: bad cells line %q", line)
		}
		ui, err1 := strconv.Atoi(f[0])
		idx, err2 := strconv.Atoi(f[1])
		seed, err3 := strconv.ParseInt(f[2], 10, 64)
		ok, err4 := strconv.Atoi(f[3])
		cost, err5 := strconv.ParseFloat(f[4], 64)
		procs, err6 := strconv.Atoi(f[5])
		if err := errors.Join(err1, err2, err3, err4, err5, err6); err != nil {
			return nil, fmt.Errorf("experiments: bad cells line %q: %v", line, err)
		}
		if ui < 0 || ui >= units {
			return nil, fmt.Errorf("experiments: cells line %q references unit %d of %d", line, ui, units)
		}
		c := Cell{Index: idx, Seed: seed, Cost: cost, Procs: procs}
		if ok == 0 {
			c.Err = errCellInfeasible
		}
		sc.Units[ui] = append(sc.Units[ui], c)
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return sc, nil
}
