package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/bounds"
	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/rng"
	"repro/internal/serve"
)

// solve-mix: corpus-ref /v1/solve requests over the full portfolio, so
// heuristics, mapping and selection dominate. The mix is synthetic: no
// request log exists, so the requests are the cells of the paper's cost
// figures (see solveMixCells), each equally often. About a quarter of
// the heuristic runs stop at Precheck and a tenth more end infeasible
// after placement. Every request carries unique seeds, so no response
// cache could serve it.
const (
	solveMixRate      = 800 // paced-phase arrivals per second, about a third of capacity
	solveMixSampleMod = 16  // every 16th request's answer is kept for the oracle
	// solveMixCycle: the window runs cycles of a paced phase (three
	// quarters of the cycle) and a closed phase. A 20 s window has ten
	// cycles.
	solveMixCycle = 2 * time.Second
	// solveMixPacedSlices: each paced phase is cut into this many latency
	// slices of 200 requests. An open loop's tail is set by host stalls,
	// which queue every request due during them; short slices leave more
	// slices free of them to pick the fastest quarter from. That quarter,
	// 15 of 60 slices, pools 3,000 requests, 30 beyond p99.
	solveMixPacedSlices = 6
)

// solveCell is one (N, alpha) point of a figure.
type solveCell struct {
	n     int
	alpha float64
}

// solveMixCells are the cells of the paper's cost figures as
// internal/experiments sweeps them: Figure 2(a) (N 20 to 140 by 20 at
// alpha 0.9), Figure 2(b) (the same sizes at alpha 1.7) and Figure 3
// (N 60, alpha 0.5 to 2.5 by 0.2). A cell in two figures is listed twice.
// main_test.go checks the list against the figures.
func solveMixCells() []solveCell {
	var cells []solveCell
	for _, alpha := range []float64{0.9, 1.7} {
		for n := 20; n <= 140; n += 20 {
			cells = append(cells, solveCell{n, alpha})
		}
	}
	for a := 5; a <= 25; a += 2 {
		cells = append(cells, solveCell{60, float64(a) / 10})
	}
	return cells
}

// solveInput is one generated solve request.
type solveInput struct {
	solveCell
	refSeed int64
	seed    int64
	body    []byte
}

// solveMixGen hands out the seed's request stream by index; request i
// is the same on every run with the same seed. The stream is laid out in
// shuffled blocks that hold every cell once, so the seed changes the
// instances but not the mix a run measures.
type solveMixGen struct {
	mu    sync.Mutex
	r     *rand.Rand
	cells []solveCell
	in    []solveInput
}

func newSolveMixGen(seed int64) *solveMixGen {
	return &solveMixGen{r: rng.Derive(seed, "e2ebench:solve-mix"), cells: solveMixCells()}
}

func (g *solveMixGen) at(i int) solveInput {
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.in) <= i {
		block := make([]solveInput, len(g.cells))
		for k, c := range g.cells {
			block[k].solveCell = c
		}
		g.r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, in := range block {
			in.refSeed, in.seed = g.r.Int63(), g.r.Int63()
			in.body, _ = json.Marshal(serve.SolveRequest{
				Ref:  &serve.CorpusRef{N: in.n, Alpha: in.alpha, Seed: in.refSeed},
				Seed: in.seed,
			})
			g.in = append(g.in, in)
		}
	}
	return g.in[i]
}

// solveMix runs the workload: cycles of a paced open loop for latency
// and a closed loop for capacity.
func (r *runner) solveMix(ctx context.Context) (*WorkloadReport, error) {
	w := newReport("solve-mix")
	gen := newSolveMixGen(r.seed)
	s, setups, err := r.boot(ctx, r.setups, nil, 0, nil)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	w.set("setup_s", median(setups), "s")

	var kept sync.Map // request index -> answer body, for the oracle
	op := func(i int) outcome {
		in := gen.at(i)
		status, body, err := r.do(ctx, http.MethodPost, s.url+"/v1/solve", in.body)
		oc := classify(status, err)
		if oc == outOK {
			if _, err := checkSolveShape(body, len(heuristics.All())); err != nil {
				return outWrong
			}
			if i%solveMixSampleMod == 0 {
				kept.Store(i, body)
			}
		}
		return oc
	}

	var warm recorder
	runClosed(ctx, r.clk, r.conns, r.warmup, func(_, i int) {
		warm.timed(r.clk, func() outcome { return op(i) })
	})
	base, _ := warm.tally()

	before, err := r.probe(ctx, s)
	if err != nil {
		return nil, err
	}
	// The window alternates the two loops, so each samples the host over
	// the whole window rather than one stretch of it. Each paced phase is
	// cut into latency slices, each closed phase is one throughput slice.
	cycle := min(solveMixCycle, r.measure)
	pacedDur := cycle * 3 / 4
	closedDur := cycle - pacedDur
	var (
		wg        sync.WaitGroup
		lat, rate [][]float64
		late      []float64 // ms the generator sent paced requests late
		issued    = base
	)
	spawn := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	for c := 0; c < int(r.measure/cycle) && ctx.Err() == nil; c++ {
		p := newRecorder(r.clk.Now(), pacedDur/solveMixPacedSlices)
		first := issued
		runOpen(ctx, r.clk, p.start, time.Second/solveMixRate, pacedDur, spawn, func(i int, due time.Time) {
			sent := r.clk.Now()
			oc := op(first + i)
			p.done(due, sent, r.clk.Now(), oc)
		})
		wg.Wait()
		n, _ := p.tally()
		issued += n

		cl := newRecorder(r.clk.Now(), closedDur)
		first = issued
		runClosed(ctx, r.clk, r.conns, closedDur, func(_, i int) {
			cl.timed(r.clk, func() outcome { return op(first + i) })
		})
		n, _ = cl.tally()
		issued += n

		w.count(p, cl)
		lat = append(lat, p.slices(solveMixPacedSlices)...)
		rate = append(rate, cl.slices(1)...)
		late = append(late, p.lateness()...)
	}
	slices.Sort(late)
	w.throughputMetric(rate, every(closedDur))
	w.latencyMetrics(lat, 0.99)
	after, err := r.probe(ctx, s)
	if err != nil {
		return nil, err
	}
	w.set("peak_rss_mb", peakRSS(s), "MiB")
	r.daemonLayers(w, s, before, after, w.Attempted-w.Failed, 0)
	w.layer("serve.http_rtt_us", r.httpRTT(ctx, s), "us")
	w.finishLayers()
	w.genHealth(late)
	if err := s.stop(); err != nil {
		return nil, fmt.Errorf("stopping the daemon: %w", err)
	}

	// Oracle: every kept answer against the library.
	hs := heuristics.All()
	arena := &mapping.Mapping{}
	var g instance.Generator
	kept.Range(func(k, v any) bool {
		in := gen.at(k.(int))
		resp, err := checkSolveShape(v.([]byte), len(hs))
		if err == nil {
			inst := g.Generate(instance.Config{NumOps: in.n, Alpha: in.alpha}, in.refSeed)
			err = checkSolveOracle(resp, inst, hs, in.seed, arena)
		}
		w.OracleChecked++
		if err != nil {
			w.mismatch("solve request %d: %v", k.(int), err)
		}
		return true
	})

	if r.trace {
		ops := make([]solveInput, 0, w.Attempted)
		for i := 0; i < w.Attempted; i++ {
			ops = append(ops, gen.at(base+i))
		}
		if err := r.replaySolveMix(ctx, w, ops); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// replaySolveMix replays the timed window's requests single-threaded
// and in-process: the library pipeline span by span, then the same body
// through serve.Server.ServeHTTP. Each replayed request must reproduce
// SolveContext.Solve's costs exactly and the daemon's answer bytes.
func (r *runner) replaySolveMix(ctx context.Context, w *WorkloadReport, ops []solveInput) error {
	srv, err := serve.Open(serve.Config{Workers: 1})
	if err != nil {
		return err
	}
	defer srv.Close()
	hs := heuristics.All()
	var sc heuristics.SolveContext
	sc.SetReuse(true)

	pass := func(tr *tracer, ctr counters, limit int, deadline time.Time) error {
		var p pipeline
		var g instance.Generator
		best := &mapping.Mapping{}
		for i, in := range ops {
			if i >= limit || time.Now().After(deadline) || tr.full() || ctx.Err() != nil {
				break
			}
			root := tr.begin("op/solve")
			id := tr.begin("serve.decode")
			var req serve.SolveRequest
			err := json.Unmarshal(in.body, &req)
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("instance.Generator.Generate")
			inst := g.Generate(instance.Config{NumOps: req.Ref.N, Alpha: req.Ref.Alpha}, req.Ref.Seed)
			tr.end(id)
			id = tr.begin("bounds.CostLowerBound")
			resp := serve.SolveResponse{LowerBound: bounds.CostLowerBound(inst)}
			tr.end(id)
			costs := make([]float64, len(hs))
			bestIdx := -1
			for k, h := range hs {
				m, err := p.solve(tr, ctr, inst, h, req.Seed)
				if err != nil {
					costs[k] = -1
					resp.Outcomes = append(resp.Outcomes, serve.OutcomeJSON{Heuristic: h.Name(), Error: err.Error()})
					continue
				}
				id = tr.begin("mapping.Mapping.Cost")
				costs[k] = m.Cost()
				tr.end(id)
				resp.Outcomes = append(resp.Outcomes, serve.OutcomeJSON{Heuristic: h.Name(), Cost: costs[k], Procs: m.NumAlive()})
				if bestIdx < 0 || costs[k] < costs[bestIdx] {
					bestIdx = k
					best.CopyFrom(m)
				}
			}
			id = tr.begin("serve.render")
			if bestIdx >= 0 {
				resp.Feasible = true
				resp.Best = &serve.BestJSON{Heuristic: hs[bestIdx].Name(), Cost: costs[bestIdx], Procs: best.NumAlive(), Mapping: mappingSpec(best)}
			}
			rendered, err := json.Marshal(&resp)
			tr.end(id)
			if err != nil {
				return err
			}
			got := serveHTTP(tr, srv, http.MethodPost, "/v1/solve", in.body)
			tr.end(root)

			// Exactness, outside the spans: the replayed pipeline must match
			// SolveContext.Solve on every heuristic, and the rendered answer
			// the in-process server's bytes.
			for k, h := range hs {
				res, err := sc.Solve(inst, h, heuristics.Options{Seed: req.Seed})
				if (err != nil) != (costs[k] < 0) || (err == nil && res.Cost != costs[k]) {
					return fmt.Errorf("replayed %s on request %d: cost %v, SolveContext.Solve %v (%v)", h.Name(), i, costs[k], res, err)
				}
			}
			if !bytes.Equal(append(rendered, '\n'), got) {
				return fmt.Errorf("replayed answer to request %d differs from ServeHTTP's", i)
			}
		}
		return nil
	}
	_, err = r.runReplay(w, pass, []string{"instance.Generator.Generate", "bounds.CostLowerBound", "heuristics.pipeline"})
	return err
}
