package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"time"

	"repro/internal/apptree"
	"repro/internal/churn"
	"repro/internal/heuristics"
	"repro/internal/instance"
	"repro/internal/mapping"
	"repro/internal/multiapp"
	"repro/internal/par"
	"repro/internal/refine"
	"repro/internal/rng"
	"repro/internal/serve"
)

// churn-sessions: two live sessions, one connection each, replay pinned
// 120-event scenarios (4 applications of 25 operators, alpha 1.5, drift
// in both directions up to 1.6x, targets up to 8). When a scenario runs
// out its session is deleted and re-created on the session's next one.
// Events run on HTTP goroutines through churn, refine and multiapp
// rather than the solve worker pool, and the portfolio serves only as
// fallback and guard. The spec is synthetic, picked so events need real
// repairs; the paper has no dynamic workload to take it from. With no
// budget_ms the answers are deterministic, so recorded answers are
// checked against an in-process engine replay.
const (
	churnSessions = 2
	churnEvents   = 120
	// churnLifetimes is how many scenarios each session has ready; it
	// wraps after that. A scenario's cost depends strongly on its seed
	// (0.7 to 3 ms per event in-process), so a run spreads its events
	// over every scenario it gets through, about 100 per session.
	churnLifetimes = 128
	// churnOracleEvery: the oracle replays the scenarios of lifetimes 0,
	// 16, 32, ... of each session and checks every answer recorded on
	// them.
	churnOracleEvery = 16
)

var churnSpec = serve.ScenarioSpec{
	InitialApps: 4, MinOps: 25, MaxOps: 25, Alpha: 1.5,
	Drift: "both", DriftMax: 1.6, RhoMax: 8,
}

// churnScenario is the generator config the daemon derives from
// churnSpec, with the event stream the client replays.
func churnScenario(seed int64) *churn.Scenario {
	return churn.NewScenario(churn.ScenarioConfig{
		InitialApps: churnSpec.InitialApps, Events: churnEvents,
		MinOps: churnSpec.MinOps, MaxOps: churnSpec.MaxOps,
		Drift: churn.DriftBoth, DriftMax: churnSpec.DriftMax, RhoMax: churnSpec.RhoMax,
		Base: instance.Config{Alpha: churnSpec.Alpha},
	}, seed)
}

// churnStream is one pinned scenario and its encoded events.
type churnStream struct {
	seed   int64
	sc     *churn.Scenario
	create []byte
	events [][]byte
}

// churnStreams generates each session's scenarios, indexed
// [session][lifetime % churnLifetimes].
func churnStreams(seed int64) ([][]churnStream, error) {
	out := make([][]churnStream, churnSessions)
	for k := range out {
		out[k] = make([]churnStream, churnLifetimes)
		for life := range out[k] {
			s := &out[k][life]
			s.seed = rng.SeedFor(seed, fmt.Sprintf("e2ebench:churn:%d:%d", k, life))
			s.sc = churnScenario(s.seed)
			var err error
			if s.create, err = json.Marshal(serve.ScenarioRequest{Scenario: churnSpec, Seed: s.seed}); err != nil {
				return nil, err
			}
			for _, ev := range s.sc.Events {
				b, err := json.Marshal(serve.ScenarioEventRequest{
					Kind: ev.Kind.String(), NumOps: ev.NumOps, TreeSeed: ev.TreeSeed, Rho: ev.Rho,
					Slot: ev.Slot, Factor: ev.Factor,
				})
				if err != nil {
					return nil, err
				}
				s.events = append(s.events, b)
			}
		}
	}
	return out, nil
}

// churnPos is where a session stands: its lifetime (how many scenarios
// it finished before this one) and the next event of that scenario.
type churnPos struct{ session, life, pos int }

func (p churnPos) stream(streams [][]churnStream) *churnStream {
	return &streams[p.session][p.life%churnLifetimes]
}

// churnAnswer is one recorded event answer, compared after the window.
type churnAnswer struct {
	at  churnPos
	res serve.ScenarioEventResult
}

func (r *runner) createSession(ctx context.Context, url string, st *churnStream) (string, error) {
	status, body, err := r.do(ctx, http.MethodPost, url+"/v1/scenario", st.create)
	if err := httpErr(status, err); err != nil {
		return "", fmt.Errorf("creating session: %w", err)
	}
	var created serve.ScenarioStatus
	if err := json.Unmarshal(body, &created); err != nil || created.ID == "" {
		return "", fmt.Errorf("creating session: bad answer %q", body)
	}
	return created.ID, nil
}

// httpErr turns a non-200 exchange into an error.
func httpErr(status int, err error) error {
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	return nil
}

func (r *runner) churnSessions(ctx context.Context) (*WorkloadReport, error) {
	w := newReport("churn-sessions")
	streams, err := churnStreams(r.seed)
	if err != nil {
		return nil, err
	}
	ids := make([]string, churnSessions)
	at := make([]churnPos, churnSessions)
	ready := func(s *sut) error {
		for k := range at {
			at[k] = churnPos{session: k}
			id, err := r.createSession(ctx, s.url, at[k].stream(streams))
			if err != nil {
				return err
			}
			ids[k] = id
		}
		return nil
	}
	s, setups, err := r.boot(ctx, r.setups, nil, 0, ready)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	w.set("setup_s", median(setups), "s")

	var (
		mu      sync.Mutex
		answers []churnAnswer
		record  bool
	)
	// step answers session k's next event. When its scenario has run
	// out the session is deleted and re-created on the next one first;
	// that cost lands in the window's wall clock, not in the event's
	// latency.
	step := func(k int, rec *recorder) error {
		p := &at[k]
		if p.pos == churnEvents {
			status, _, err := r.do(ctx, http.MethodDelete, s.url+"/v1/scenario/"+ids[k], nil)
			if err := httpErr(status, err); err != nil {
				return fmt.Errorf("deleting session: %w", err)
			}
			p.life, p.pos = p.life+1, 0
			if ids[k], err = r.createSession(ctx, s.url, p.stream(streams)); err != nil {
				return err
			}
		}
		st := p.stream(streams)
		t0 := r.clk.Now()
		status, body, err := r.do(ctx, http.MethodPost, s.url+"/v1/scenario/"+ids[k]+"/event", st.events[p.pos])
		oc := classify(status, err)
		if oc == outOK {
			var res serve.ScenarioEventResult
			if json.Unmarshal(body, &res) != nil || res.Kind != st.sc.Events[p.pos].Kind.String() {
				oc = outWrong
			} else if record {
				mu.Lock()
				answers = append(answers, churnAnswer{at: *p, res: res})
				mu.Unlock()
			}
		}
		rec.done(t0, t0, r.clk.Now(), oc)
		p.pos++
		return nil
	}
	errs := make([]error, churnSessions) // set by session k's client only
	op := func(rec *recorder, k, _ int) {
		if errs[k] == nil {
			errs[k] = step(k, rec)
		}
	}

	var warm recorder
	runClosed(ctx, r.clk, churnSessions, r.warmup, func(k, i int) { op(&warm, k, i) })
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	startAt := slices.Clone(at)
	before, err := r.probe(ctx, s)
	if err != nil {
		return nil, err
	}
	record = true
	r.closedWindow(ctx, w, churnSessions, 0, op)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
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

	// Oracle: the sampled scenarios replayed on in-process engines; every
	// answer recorded on them must match its event's outcome, cost and
	// migration count.
	checked := map[churnPos][]churnAnswer{} // keyed by scenario (pos 0)
	for _, a := range answers {
		if a.at.life%churnOracleEvery == 0 {
			key := churnPos{session: a.at.session, life: a.at.life}
			checked[key] = append(checked[key], a)
		}
	}
	keys := slices.SortedFunc(maps.Keys(checked), func(a, b churnPos) int {
		return cmp.Or(cmp.Compare(a.session, b.session), cmp.Compare(a.life, b.life))
	})
	want := make([][]churn.EventResult, len(keys))
	errs = make([]error, len(keys))
	if err := par.ForEach(ctx, r.conns, len(keys), func(i int) {
		want[i], errs[i] = engineReplay(ctx, keys[i].stream(streams))
	}); err != nil {
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i, key := range keys {
		for _, a := range checked[key] {
			e := want[i][a.at.pos]
			w.OracleChecked++
			if a.res.Outcome != e.Outcome.String() || a.res.Cost != e.Cost || a.res.Moved != e.Moved {
				w.mismatch("session %d scenario %d event %d: daemon %s cost %v moved %d, engine %s cost %v moved %d",
					a.at.session, a.at.life, a.at.pos, a.res.Outcome, a.res.Cost, a.res.Moved, e.Outcome, e.Cost, e.Moved)
			}
		}
	}

	if r.trace {
		ops := make([]churnPos, len(answers))
		for i, a := range answers {
			ops[i] = a.at
		}
		if err := r.replayChurn(ctx, w, streams, startAt, ops); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// engineReplay answers a session's whole stream on a fresh engine, as
// the daemon does for a session created with the stream's seed.
func engineReplay(ctx context.Context, st *churnStream) ([]churn.EventResult, error) {
	eng := churn.NewEngine(churn.Options{Seed: st.seed})
	if err := eng.Start(st.sc); err != nil {
		return nil, err
	}
	out := make([]churn.EventResult, 0, len(st.sc.Events))
	for _, ev := range st.sc.Events {
		er, err := eng.Step(ctx, ev)
		if err != nil {
			return nil, err
		}
		out = append(out, er)
	}
	return out, nil
}

// churnReplayer is one session's replay state: the engine, the same
// session on an in-process server, and the live application list the
// per-layer calls (multiapp.Combine, the portfolio) are made on.
type churnReplayer struct {
	st   *churnStream
	eng  *churn.Engine
	life int // lifetime of st in its session
	pos  int
	id   string
	apps []multiapp.App
	inc  mapping.Mapping
}

// tree builds an application tree exactly as the engine does on arrival.
func churnTree(seed int64, numOps, numTypes int) *apptree.Tree {
	return new(apptree.Builder).Random(rng.New(seed), numOps, numTypes)
}

// start (re)creates the session in the engine and on the server.
func (c *churnReplayer) start(tr *tracer, srv http.Handler) error {
	id := tr.begin("churn.Engine.Start")
	c.eng = churn.NewEngine(churn.Options{Seed: c.st.seed})
	err := c.eng.Start(c.st.sc)
	tr.end(id)
	if err != nil {
		return err
	}
	if c.id != "" {
		serveHTTP(tr, srv, http.MethodDelete, "/v1/scenario/"+c.id, nil)
	}
	body := serveHTTP(tr, srv, http.MethodPost, "/v1/scenario", c.st.create)
	var created serve.ScenarioStatus
	if err := json.Unmarshal(body, &created); err != nil || created.ID == "" {
		return fmt.Errorf("in-process session create: %q", body)
	}
	c.id, c.pos = created.ID, 0
	c.apps = c.apps[:0]
	for _, a := range c.st.sc.Initial {
		c.apps = append(c.apps, multiapp.App{Tree: churnTree(a.TreeSeed, a.NumOps, c.st.sc.Workload.NumTypes), Rho: a.Rho})
	}
	return nil
}

// step answers the next event through the engine and the in-process
// server; with measure set it also times the per-layer calls on the
// post-event state. It returns the engine's answer.
func (c *churnReplayer) step(ctx context.Context, tr *tracer, ctr counters, srv http.Handler, measure bool) error {
	ev := c.st.sc.Events[c.pos]
	id := tr.begin("serve.decode")
	var req serve.ScenarioEventRequest
	err := json.Unmarshal(c.st.events[c.pos], &req)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("churn.Engine.Step")
	er, err := c.eng.Step(ctx, ev)
	tr.endAs(id, "churn.Engine.Step/"+er.Outcome.String())
	if err != nil {
		return err
	}
	id = tr.begin("serve.render")
	_, err = json.Marshal(serve.ScenarioEventResult{Kind: ev.Kind.String(), Outcome: er.Outcome.String(), Cost: er.Cost, Moved: er.Moved})
	tr.end(id)
	if err != nil {
		return err
	}
	body := serveHTTP(tr, srv, http.MethodPost, "/v1/scenario/"+c.id+"/event", c.st.events[c.pos])
	var got serve.ScenarioEventResult
	if err := json.Unmarshal(body, &got); err != nil || got.Outcome != er.Outcome.String() || got.Cost != er.Cost || got.Moved != er.Moved {
		return fmt.Errorf("event %d: ServeHTTP answered %q, engine %s cost %v moved %d", c.pos, body, er.Outcome, er.Cost, er.Moved)
	}
	c.pos++
	if er.Outcome != churn.Rejected {
		switch ev.Kind {
		case churn.Arrive:
			c.apps = append(c.apps, multiapp.App{Tree: churnTree(ev.TreeSeed, ev.NumOps, c.st.sc.Workload.NumTypes), Rho: ev.Rho})
		case churn.Depart:
			c.apps = append(c.apps[:ev.Slot], c.apps[ev.Slot+1:]...)
		case churn.Drift:
			c.apps[ev.Slot].Rho *= ev.Factor
		}
	}
	if !measure {
		return nil
	}
	ctr["churn.events"]++
	ctr["churn."+er.Outcome.String()]++
	ctr["churn.moved"] += float64(er.Moved)

	id = tr.begin("multiapp.Combine")
	in, err := multiapp.Combine(c.apps, c.st.sc.Workload)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("churn.Engine.IncumbentInto")
	err = c.eng.IncumbentInto(&c.inc)
	tr.end(id)
	if err != nil {
		return err
	}
	if n := c.inc.Inst.Tree.NumOps(); n != in.Tree.NumOps() {
		return fmt.Errorf("event %d: combined %d operators, engine incumbent has %d", c.pos-1, in.Tree.NumOps(), n)
	}
	id = tr.begin("refine.Improve")
	err = refine.Improve(ctx, &c.inc, rng.New(c.st.seed+int64(c.pos)), refine.Options{SAIters: 400 + 20*in.Tree.NumOps(), LNSRounds: 3})
	tr.end(id)
	if err != nil {
		return fmt.Errorf("event %d: refine.Improve: %w", c.pos-1, err)
	}
	id = tr.begin("churn.resolve")
	var p pipeline
	for _, h := range heuristics.All() {
		p.solve(tr, ctr, in, h, c.st.seed)
	}
	tr.end(id)
	return nil
}

// serveHTTP runs one request through an in-process handler under a span.
func serveHTTP(tr *tracer, h http.Handler, method, path string, body []byte) []byte {
	id := tr.begin("serve.Server.ServeHTTP")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	tr.end(id)
	return rec.Body.Bytes()
}

// replayChurn replays the window's events in the order the daemon
// answered them, each session first brought to its position at the
// start of the window without tracing.
func (r *runner) replayChurn(ctx context.Context, w *WorkloadReport, streams [][]churnStream, startAt, ops []churnPos) error {
	pass := func(tr *tracer, ctr counters, limit int, deadline time.Time) error {
		srv, err := serve.Open(serve.Config{Workers: 1})
		if err != nil {
			return err
		}
		defer srv.Close()
		quiet := newTracer(0, false)
		reps := make([]*churnReplayer, len(startAt))
		for k, p := range startAt {
			reps[k] = &churnReplayer{st: p.stream(streams), life: p.life}
			if err := reps[k].start(quiet, srv); err != nil {
				return err
			}
			for reps[k].pos < p.pos {
				if err := reps[k].step(ctx, quiet, ctr, srv, false); err != nil {
					return err
				}
			}
		}
		for i, o := range ops {
			if i >= limit || time.Now().After(deadline) || tr.full() || ctx.Err() != nil {
				break
			}
			c := reps[o.session]
			if o.life != c.life {
				if o.life != c.life+1 || o.pos != 0 || c.pos != churnEvents {
					return fmt.Errorf("session %d replay at scenario %d event %d, daemon answered scenario %d event %d",
						o.session, c.life, c.pos, o.life, o.pos)
				}
				c.st, c.life = o.stream(streams), o.life
				root := tr.begin("op/churn-create")
				err := c.start(tr, srv)
				tr.end(root)
				if err != nil {
					return err
				}
			}
			if o.pos != c.pos {
				return fmt.Errorf("session %d replay at event %d, daemon answered event %d", o.session, c.pos, o.pos)
			}
			root := tr.begin("op/churn")
			err := c.step(ctx, tr, ctr, srv, true)
			tr.end(root)
			if err != nil {
				return err
			}
		}
		return nil
	}
	_, err := r.runReplay(w, pass, []string{"churn.Engine.Start", "churn.Engine.Step/repaired", "churn.Engine.Step/resolved", "churn.Engine.Step/rejected"})
	return err
}
