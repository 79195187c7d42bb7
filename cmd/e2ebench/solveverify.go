package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/bounds"
	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/stream"
)

// solve-verify: each operation solves a small inline instance with one
// cheap heuristic and then verifies the returned mapping on the stream
// engine. Heuristics do little here; JSON decoding, instance validation
// and the discrete-event simulation dominate, which is the opposite
// balance to solve-mix. The sizes and alphas are synthetic, picked to
// keep the solve cheap next to the verify.
const (
	verifyPool    = 256 // distinct instances, each checked by the oracle
	verifyResults = 60  // simulated root results per verify
)

var (
	verifyNs     = []int{10, 20, 40}
	verifyAlphas = []float64{0.9, 1.2, 1.5}
)

// verifyInput is one pooled instance and its pre-encoded solve body.
type verifyInput struct {
	inst      *instance.Instance
	raw       json.RawMessage // the instance's wire form
	seed      int64
	solveBody []byte
}

// verifyHeuristic is the single heuristic the workload asks for.
var verifyHeuristic = heuristics.SubtreeBottomUp{}

// verifyInputs generates the seed's instance pool. Instances the
// heuristic cannot place are skipped, so no operation fails by design.
func verifyInputs(seed int64) ([]verifyInput, error) {
	r := rng.Derive(seed, "e2ebench:solve-verify")
	var pool []verifyInput
	for len(pool) < verifyPool {
		// Sizes and alphas take turns, so the seed changes the instances
		// but not the mix; a slot whose instance cannot be placed is
		// drawn again.
		k := len(pool)
		cfg := instance.Config{NumOps: verifyNs[k%len(verifyNs)], Alpha: verifyAlphas[k/len(verifyNs)%len(verifyAlphas)]}
		in := instance.Generate(cfg, r.Int63())
		s := r.Int63()
		if _, err := heuristics.Solve(in, verifyHeuristic, heuristics.Options{Seed: s}); err != nil {
			continue
		}
		raw, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(struct {
			Instance  json.RawMessage `json:"instance"`
			Heuristic string          `json:"heuristic"`
			Seed      int64           `json:"seed"`
		}{raw, verifyHeuristic.Name(), s})
		if err != nil {
			return nil, err
		}
		pool = append(pool, verifyInput{inst: in, raw: raw, seed: s, solveBody: body})
	}
	return pool, nil
}

// verifyBody builds the /v1/verify request for a solve answer.
func verifyBody(in *verifyInput, solveResp []byte) ([]byte, error) {
	var sr struct {
		Best *struct {
			Mapping json.RawMessage `json:"mapping"`
		} `json:"best"`
	}
	if err := json.Unmarshal(solveResp, &sr); err != nil || sr.Best == nil {
		return nil, fmt.Errorf("solve answer has no best mapping")
	}
	return json.Marshal(struct {
		Instance json.RawMessage `json:"instance"`
		Mapping  json.RawMessage `json:"mapping"`
		Results  int             `json:"results"`
	}{in.raw, sr.Best.Mapping, verifyResults})
}

// firstAnswers keeps, per pooled instance, the first solve and verify
// answers; every later answer for the instance must equal them byte for
// byte, and the oracle checks the first.
type firstAnswers struct {
	mu     sync.Mutex
	solve  [][]byte
	vbody  [][]byte // the verify request built from solve[i]
	verify [][]byte
	uses   []int // successful operations per instance
}

func (r *runner) solveVerify(ctx context.Context) (*WorkloadReport, error) {
	w := newReport("solve-verify")
	pool, err := verifyInputs(r.seed)
	if err != nil {
		return nil, err
	}
	s, setups, err := r.boot(ctx, r.setups, nil, 0, nil)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	w.set("setup_s", median(setups), "s")

	first := &firstAnswers{
		solve: make([][]byte, len(pool)), vbody: make([][]byte, len(pool)),
		verify: make([][]byte, len(pool)), uses: make([]int, len(pool)),
	}
	op := func(i int) outcome {
		k := i % len(pool)
		in := &pool[k]
		status, sbody, err := r.do(ctx, http.MethodPost, s.url+"/v1/solve", in.solveBody)
		if oc := classify(status, err); oc != outOK {
			return oc
		}
		first.mu.Lock()
		known, vb := first.solve[k], first.vbody[k]
		first.mu.Unlock()
		if known == nil {
			if vb, err = verifyBody(in, sbody); err != nil {
				return outWrong
			}
		} else if !bytes.Equal(known, sbody) {
			return outWrong
		}
		status, vresp, err := r.do(ctx, http.MethodPost, s.url+"/v1/verify", vb)
		if oc := classify(status, err); oc != outOK {
			return oc
		}
		first.mu.Lock()
		defer first.mu.Unlock()
		if first.solve[k] == nil {
			first.solve[k], first.vbody[k], first.verify[k] = sbody, vb, vresp
		} else if !bytes.Equal(first.solve[k], sbody) || !bytes.Equal(first.verify[k], vresp) {
			return outWrong
		}
		first.uses[k]++
		return outOK
	}

	var warm recorder
	runClosed(ctx, r.clk, r.conns, r.warmup, func(_, i int) {
		warm.timed(r.clk, func() outcome { return op(i) })
	})
	base, _ := warm.tally()
	first.mu.Lock()
	clear(first.uses)
	first.mu.Unlock()

	before, err := r.probe(ctx, s)
	if err != nil {
		return nil, err
	}
	r.closedWindow(ctx, w, r.conns, base, func(rec *recorder, _, i int) {
		rec.timed(r.clk, func() outcome { return op(i) })
	})
	after, err := r.probe(ctx, s)
	if err != nil {
		return nil, err
	}
	w.set("peak_rss_mb", peakRSS(s), "MiB")
	r.daemonLayers(w, s, before, after, w.Attempted-w.Failed, 0)
	w.layer("serve.http_rtt_us", r.httpRTT(ctx, s), "us")
	w.finishLayers()
	w.genHealth(nil)
	if err := s.stop(); err != nil {
		return nil, fmt.Errorf("stopping the daemon: %w", err)
	}

	// Oracle: the first answer per instance against the library; every
	// other answer already equalled it byte for byte.
	arena := &mapping.Mapping{}
	var runner stream.Runner
	for k := range pool {
		if first.solve[k] == nil || first.uses[k] == 0 {
			continue
		}
		w.OracleChecked += first.uses[k]
		if err := checkVerifyOracle(&pool[k], first.solve[k], first.verify[k], arena, &runner); err != nil {
			w.OracleMismatched += first.uses[k] - 1
			w.mismatch("instance %d: %v", k, err)
		}
	}

	if r.trace {
		ops := make([]*verifyInput, 0, w.Attempted)
		for i := 0; i < w.Attempted; i++ {
			ops = append(ops, &pool[(base+i)%len(pool)])
		}
		if err := r.replaySolveVerify(ctx, w, ops); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// checkVerifyOracle checks one instance's solve answer against the
// library and its verify answer against stream.Runner.Simulate on the
// rebuilt mapping.
func checkVerifyOracle(in *verifyInput, solveBody, verifyBody []byte, arena *mapping.Mapping, sim *stream.Runner) error {
	sresp, err := checkSolveShape(solveBody, 1)
	if err != nil {
		return err
	}
	if err := checkSolveOracle(sresp, in.inst, []heuristics.Heuristic{verifyHeuristic}, in.seed, arena); err != nil {
		return err
	}
	if sresp.Best == nil {
		return fmt.Errorf("no feasible mapping for a pre-checked instance")
	}
	var got serve.VerifyResponse
	if err := json.Unmarshal(verifyBody, &got); err != nil {
		return fmt.Errorf("decoding verify answer: %w", err)
	}
	// arena holds the rebuilt best mapping after checkSolveOracle.
	rep, err := sim.Simulate(arena, stream.Options{Results: verifyResults})
	if err != nil {
		return fmt.Errorf("library simulation: %w", err)
	}
	want := serve.VerifyResponse{
		OK: rep.Throughput >= 0.9*in.inst.Rho, Throughput: rep.Throughput, Target: in.inst.Rho,
		Analytic: rep.Analytic, Completed: rep.Completed, SimTime: rep.SimTime, Events: rep.Events,
	}
	if got != want {
		return fmt.Errorf("verify answer %+v, library %+v", got, want)
	}
	return nil
}

// replaySolveVerify replays the window's solve+verify pairs in-process.
func (r *runner) replaySolveVerify(ctx context.Context, w *WorkloadReport, ops []*verifyInput) error {
	srv, err := serve.Open(serve.Config{Workers: 1})
	if err != nil {
		return err
	}
	defer srv.Close()
	var sc heuristics.SolveContext
	sc.SetReuse(true)

	pass := func(tr *tracer, ctr counters, limit int, deadline time.Time) error {
		var p pipeline
		var sim stream.Runner
		vm := &mapping.Mapping{}
		for i, in := range ops {
			if i >= limit || time.Now().After(deadline) || tr.full() || ctx.Err() != nil {
				break
			}
			root := tr.begin("op/solve-verify")
			id := tr.begin("serve.decode")
			var req serve.SolveRequest
			err := json.Unmarshal(in.solveBody, &req)
			if err == nil {
				err = req.Instance.Validate()
				req.Instance.Refresh()
			}
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("bounds.CostLowerBound")
			lb := bounds.CostLowerBound(req.Instance)
			tr.end(id)
			m, err := p.solve(tr, ctr, req.Instance, verifyHeuristic, req.Seed)
			if err != nil {
				return fmt.Errorf("operation %d: %w", i, err)
			}
			id = tr.begin("mapping.Mapping.Cost")
			cost := m.Cost()
			tr.end(id)
			id = tr.begin("serve.render")
			spec := mappingSpec(m)
			solved, err := json.Marshal(&serve.SolveResponse{
				Feasible: true, LowerBound: lb,
				Best:     &serve.BestJSON{Heuristic: verifyHeuristic.Name(), Cost: cost, Procs: m.NumAlive(), Mapping: spec},
				Outcomes: []serve.OutcomeJSON{{Heuristic: verifyHeuristic.Name(), Cost: cost, Procs: m.NumAlive()}},
			})
			tr.end(id)
			if err != nil {
				return err
			}
			gotSolve := serveHTTP(tr, srv, http.MethodPost, "/v1/solve", in.solveBody)

			vb, err := verifyBody(in, gotSolve)
			if err != nil {
				return err
			}
			id = tr.begin("serve.decode")
			var vreq serve.VerifyRequest
			err = json.Unmarshal(vb, &vreq)
			if err == nil {
				err = vreq.Instance.Validate()
				vreq.Instance.Refresh()
			}
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("mapping.rebuild")
			err = rebuild(vm, vreq.Instance, vreq.Mapping)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("operation %d: %w", i, err)
			}
			id = tr.begin("stream.Runner.Simulate")
			rep, err := sim.Simulate(vm, stream.Options{Results: vreq.Results})
			tr.end(id)
			if err != nil {
				return err
			}
			ctr["stream.sims"]++
			ctr["stream.events"] += float64(rep.Events)
			id = tr.begin("stream.AnalyticMaxThroughput")
			analytic := stream.AnalyticMaxThroughput(vm)
			tr.end(id)
			id = tr.begin("serve.render")
			verified, err := json.Marshal(&serve.VerifyResponse{
				OK: rep.Throughput >= 0.9*vreq.Instance.Rho, Throughput: rep.Throughput, Target: vreq.Instance.Rho,
				Analytic: rep.Analytic, Completed: rep.Completed, SimTime: rep.SimTime, Events: rep.Events,
			})
			tr.end(id)
			if err != nil {
				return err
			}
			gotVerify := serveHTTP(tr, srv, http.MethodPost, "/v1/verify", vb)
			tr.end(root)

			res, err := sc.Solve(req.Instance, verifyHeuristic, heuristics.Options{Seed: req.Seed})
			switch {
			case err != nil || res.Cost != cost:
				return fmt.Errorf("operation %d: replayed cost %v, SolveContext.Solve %v (%v)", i, cost, res, err)
			case analytic != rep.Analytic:
				return fmt.Errorf("operation %d: AnalyticMaxThroughput %v, simulation reports %v", i, analytic, rep.Analytic)
			case !bytes.Equal(append(solved, '\n'), gotSolve) || !bytes.Equal(append(verified, '\n'), gotVerify):
				return fmt.Errorf("operation %d: replayed answers differ from ServeHTTP's", i)
			}
		}
		return nil
	}
	_, err = r.runReplay(w, pass, []string{"bounds.CostLowerBound", "heuristics.pipeline", "mapping.rebuild", "stream.Runner.Simulate"})
	return err
}
