package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/churn"
	"repro/internal/mapping"
)

// scenarioStatus decodes a create/status response body.
func scenarioStatus(t *testing.T, body []byte) ScenarioStatus {
	t.Helper()
	var st ScenarioStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("scenario JSON: %v\n%s", err, body)
	}
	return st
}

// TestScenarioLifecycle drives one session end to end: create with an
// empty event stream, arrive, drift, depart, status, delete — every
// answer a validated incumbent, every counter advancing.
func TestScenarioLifecycle(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	rec := do(t, s, "POST", "/v1/scenario",
		[]byte(`{"scenario":{"initial_apps":2,"min_ops":4,"max_ops":6},"seed":3}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("create: %d (%s)", rec.Code, rec.Body.String())
	}
	st := scenarioStatus(t, rec.Body.Bytes())
	if st.ID == "" || st.Cost <= 0 || st.Apps != 2 || st.Events != 0 || len(st.Trace) != 0 {
		t.Fatalf("create status: %+v", st)
	}
	if st.Policy != "repair" {
		t.Fatalf("default policy = %q, want repair", st.Policy)
	}
	base := fmt.Sprintf("/v1/scenario/%s", st.ID)

	events := []string{
		`{"kind":"arrive","num_ops":5,"tree_seed":11,"rho":1}`,
		`{"kind":"drift","slot":0,"factor":1.4}`,
		`{"kind":"depart","slot":1}`,
	}
	for i, body := range events {
		rec := do(t, s, "POST", base+"/event", []byte(body))
		if rec.Code != http.StatusOK {
			t.Fatalf("event %d: %d (%s)", i, rec.Code, rec.Body.String())
		}
		var er ScenarioEventResult
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatalf("event %d JSON: %v", i, err)
		}
		if er.Outcome == "rejected" || er.Cost <= 0 {
			t.Fatalf("event %d: %+v", i, er)
		}
	}

	rec = do(t, s, "GET", base, nil)
	st = scenarioStatus(t, rec.Body.Bytes())
	if st.Events != 3 || st.Rejected != 0 || st.Repaired+st.Resolved != 3 {
		t.Fatalf("status after events: %+v", st)
	}
	if st.Apps != 2 { // 2 initial + 1 arrival - 1 departure
		t.Fatalf("apps = %d, want 2", st.Apps)
	}

	if rec := do(t, s, "DELETE", base, nil); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d", rec.Code)
	}
	if rec := do(t, s, "GET", base, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("status after delete: %d, want 404", rec.Code)
	}
}

// TestScenarioGeneratedStream creates a session whose seeded event
// stream runs at creation; the trace and counters must cover it, and
// the session stays live for further events.
func TestScenarioGeneratedStream(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	rec := do(t, s, "POST", "/v1/scenario",
		[]byte(`{"scenario":{"events":5,"min_ops":4,"max_ops":6},"policy":"resolve","seed":1}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("create: %d (%s)", rec.Code, rec.Body.String())
	}
	st := scenarioStatus(t, rec.Body.Bytes())
	if st.Policy != "resolve" || st.Events != 5 || len(st.Trace) != 5 {
		t.Fatalf("generated-stream status: %+v", st)
	}
	rec = do(t, s, "POST", fmt.Sprintf("/v1/scenario/%s/event", st.ID),
		[]byte(`{"kind":"drift","slot":0,"factor":1.1}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-stream event: %d (%s)", rec.Code, rec.Body.String())
	}
}

// TestScenarioRejectedEvent pins the reject path: an invalid event
// answers 200 with outcome "rejected" and a reason, and the incumbent
// is untouched.
func TestScenarioRejectedEvent(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	rec := do(t, s, "POST", "/v1/scenario", []byte(`{"scenario":{"min_ops":4,"max_ops":6},"seed":2}`))
	st := scenarioStatus(t, rec.Body.Bytes())

	rec = do(t, s, "POST", fmt.Sprintf("/v1/scenario/%s/event", st.ID),
		[]byte(`{"kind":"depart","slot":99}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("rejected event: %d (%s)", rec.Code, rec.Body.String())
	}
	var er ScenarioEventResult
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Outcome != "rejected" || er.Error == "" {
		t.Fatalf("rejected event result: %+v", er)
	}
	if er.Cost != st.Cost || er.Apps != st.Apps {
		t.Fatalf("incumbent changed on rejection: %+v vs %+v", er, st)
	}
	after := scenarioStatus(t, do(t, s, "GET", "/v1/scenario/"+st.ID, nil).Body.Bytes())
	if after.Rejected != 1 || after.Cost != st.Cost {
		t.Fatalf("status after rejection: %+v", after)
	}
}

// TestScenarioBadRequests pins the HTTP error mapping.
func TestScenarioBadRequests(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxOps: 50})
	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/scenario", `not json`, http.StatusBadRequest},
		{"POST", "/v1/scenario", `{"policy":"magic"}`, http.StatusBadRequest},
		{"POST", "/v1/scenario", `{"scenario":{"drift":"sideways"}}`, http.StatusBadRequest},
		{"POST", "/v1/scenario", `{"scenario":{"min_ops":9,"max_ops":4}}`, http.StatusBadRequest},
		{"POST", "/v1/scenario", `{"scenario":{"arrive_frac":0.8,"depart_frac":0.8}}`, http.StatusBadRequest},
		{"POST", "/v1/scenario", `{"scenario":{"rho":-1}}`, http.StatusBadRequest},
		{"POST", "/v1/scenario", `{"scenario":{"max_ops":500}}`, http.StatusRequestEntityTooLarge},
		// The cap applies after the generator's defaults: max_ops 0 means
		// 9, raised to min_ops when below it, and max_apps 0 means 6.
		{"POST", "/v1/scenario", `{"scenario":{"min_ops":60}}`, http.StatusRequestEntityTooLarge},
		{"POST", "/v1/scenario", `{"scenario":{"initial_apps":40,"min_ops":5,"max_ops":5}}`, http.StatusRequestEntityTooLarge},
		{"POST", "/v1/scenario", `{"scenario":{"max_apps":11,"min_ops":5,"max_ops":5}}`, http.StatusRequestEntityTooLarge},
		{"POST", "/v1/scenario", `{"scenario":{"initial_apps":1,"min_ops":9}}`, http.StatusRequestEntityTooLarge},
		{"POST", "/v1/scenario", `{"scenario":{"initial_apps":10,"max_apps":10,"min_ops":5,"max_ops":5},"seed":1}`, http.StatusOK},
		{"GET", "/v1/scenario/nope", "", http.StatusNotFound},
		{"DELETE", "/v1/scenario/nope", "", http.StatusNotFound},
		{"POST", "/v1/scenario/nope/event", `{"kind":"drift","slot":0,"factor":1.1}`, http.StatusNotFound},
	}
	for _, c := range cases {
		var body []byte
		if c.body != "" {
			body = []byte(c.body)
		}
		if rec := do(t, s, c.method, c.path, body); rec.Code != c.want {
			t.Errorf("%s %s %s: %d, want %d (%s)", c.method, c.path, c.body, rec.Code, c.want, rec.Body.String())
		}
	}

	// Event-level errors need a live session.
	st := scenarioStatus(t, do(t, s, "POST", "/v1/scenario",
		[]byte(`{"scenario":{"min_ops":4,"max_ops":6},"seed":1}`)).Body.Bytes())
	base := fmt.Sprintf("/v1/scenario/%s/event", st.ID)
	if rec := do(t, s, "POST", base, []byte(`{"kind":"mutate"}`)); rec.Code != http.StatusBadRequest {
		t.Errorf("bad kind: %d", rec.Code)
	}
	if rec := do(t, s, "POST", base, []byte(`{"kind":"arrive","num_ops":500}`)); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized arrival: %d", rec.Code)
	}
	// Arrivals are capped on the session's live operator count, not
	// just on their own size.
	over := fmt.Sprintf(`{"kind":"arrive","num_ops":%d}`, 50-st.Ops+1)
	if rec := do(t, s, "POST", base, []byte(over)); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("arrival past the live cap: %d (%s)", rec.Code, rec.Body.String())
	}
	fits := fmt.Sprintf(`{"kind":"arrive","num_ops":%d}`, 50-st.Ops)
	if rec := do(t, s, "POST", base, []byte(fits)); rec.Code != http.StatusOK {
		t.Errorf("arrival up to the live cap: %d (%s)", rec.Code, rec.Body.String())
	}
	// timeout_ms <= 0 falls back to the server default, like /v1/solve.
	if rec := do(t, s, "POST", base, []byte(`{"kind":"drift","slot":0,"factor":1.2,"timeout_ms":-1}`)); rec.Code != http.StatusOK {
		t.Errorf("default-timeout drift: %d (%s)", rec.Code, rec.Body.String())
	}
}

// TestScenarioSessionCap fills the registry and requires 429 beyond it,
// then frees a slot with DELETE.
func TestScenarioSessionCap(t *testing.T) {
	if testing.Short() {
		t.Skip("creates maxScenarios sessions")
	}
	s := newTestServer(t, Config{Workers: 1})
	body := []byte(`{"scenario":{"initial_apps":1,"min_ops":3,"max_ops":3},"seed":1}`)
	var first string
	for i := 0; i < maxScenarios; i++ {
		rec := do(t, s, "POST", "/v1/scenario", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("create %d: %d (%s)", i, rec.Code, rec.Body.String())
		}
		if i == 0 {
			first = scenarioStatus(t, rec.Body.Bytes()).ID
		}
	}
	if rec := do(t, s, "POST", "/v1/scenario", body); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over cap: %d, want 429", rec.Code)
	}
	if rec := do(t, s, "DELETE", "/v1/scenario/"+first, nil); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d", rec.Code)
	}
	if rec := do(t, s, "POST", "/v1/scenario", body); rec.Code != http.StatusOK {
		t.Fatalf("create after delete: %d", rec.Code)
	}
}

// FuzzScenarioEvent sends random event bodies through the event
// handler, each to a fresh session of two small applications under a
// 24-operator cap. Every body must answer 200 or 4xx, never 5xx or a
// panic; the one exception is a 504 for a body that set its own
// timeout_ms, since the event may outrun a deadline the client chose.
// After every 200 the incumbent IncumbentInto rebuilds must pass
// Validate.
func FuzzScenarioEvent(f *testing.F) {
	for _, body := range []string{
		`{"kind":"arrive","num_ops":5,"tree_seed":11,"rho":1}`,
		`{"kind":"arrive","num_ops":-3}`,
		`{"kind":"arrive","num_ops":40}`,
		`{"kind":"arrive","num_ops":4,"rho":1e300}`,
		`{"kind":"drift","slot":0,"factor":1.4}`,
		`{"kind":"drift","slot":1,"factor":-2}`,
		`{"kind":"drift","slot":0,"factor":1e-300}`,
		`{"kind":"depart","slot":1}`,
		`{"kind":"depart","slot":-1}`,
		`{"kind":"drift","slot":0,"factor":1.2,"timeout_ms":1}`,
		`{"kind":"teleport"}`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	s := New(Config{Workers: 1, MaxOps: 24})
	f.Cleanup(s.Close)
	create := []byte(`{"scenario":{"initial_apps":2,"min_ops":3,"max_ops":6,"max_apps":3},"seed":5}`)
	var m mapping.Mapping
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := do(t, s, "POST", "/v1/scenario", create)
		if rec.Code != http.StatusOK {
			t.Fatalf("create: %d (%s)", rec.Code, rec.Body.String())
		}
		id := scenarioStatus(t, rec.Body.Bytes()).ID
		defer do(t, s, "DELETE", "/v1/scenario/"+id, nil)
		rec = do(t, s, "POST", "/v1/scenario/"+id+"/event", body)
		var req ScenarioEventRequest
		clientDeadline := json.Unmarshal(body, &req) == nil && req.TimeoutMS > 0
		switch {
		case rec.Code == http.StatusOK:
		case rec.Code >= 400 && rec.Code < 500,
			rec.Code == http.StatusGatewayTimeout && clientDeadline:
			return
		default:
			t.Fatalf("event %q: %d (%s)", body, rec.Code, rec.Body.String())
		}
		s.scenMu.Lock()
		ses := s.scenarios[id]
		s.scenMu.Unlock()
		if err := ses.eng.IncumbentInto(&m); err != nil {
			t.Fatalf("event %q: rebuild incumbent: %v", body, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("event %q: incumbent invalid: %v", body, err)
		}
	})
}

// TestScenarioStatszCounters checks the churn section of /statsz.
func TestScenarioStatszCounters(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	st := scenarioStatus(t, do(t, s, "POST", "/v1/scenario",
		[]byte(`{"scenario":{"min_ops":4,"max_ops":6},"seed":4}`)).Body.Bytes())
	base := fmt.Sprintf("/v1/scenario/%s/event", st.ID)
	do(t, s, "POST", base, []byte(`{"kind":"drift","slot":0,"factor":1.3}`))
	do(t, s, "POST", base, []byte(`{"kind":"depart","slot":77}`)) // rejected

	rec := do(t, s, "GET", "/statsz", nil)
	var sz statszResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sz); err != nil {
		t.Fatalf("statsz JSON: %v", err)
	}
	if sz.Churn.Live != 1 || sz.Churn.Created != 1 {
		t.Fatalf("churn sessions: %+v", sz.Churn)
	}
	if sz.Churn.Events != 2 || sz.Churn.Rejected != 1 ||
		sz.Churn.Repaired+sz.Churn.Resolved != 1 {
		t.Fatalf("churn event counters: %+v", sz.Churn)
	}
}

// TestScenarioEventPanicContained injects a panic into a session's
// engine step: the event must answer 500 and count in /statsz, the
// session mutex must be released (the next event is answered, not
// 409), and the session must still show its pre-event snapshot.
func TestScenarioEventPanicContained(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	st := scenarioStatus(t, do(t, s, "POST", "/v1/scenario",
		[]byte(`{"scenario":{"min_ops":4,"max_ops":6},"seed":4}`)).Body.Bytes())
	base := "/v1/scenario/" + st.ID
	armed := true
	s.testHookEventStep = func() {
		if armed {
			armed = false
			panic("injected step failure")
		}
	}
	rec := do(t, s, "POST", base+"/event", []byte(`{"kind":"drift","slot":0,"factor":1.3}`))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking event: %d (%s), want 500", rec.Code, rec.Body.String())
	}
	if after := scenarioStatus(t, do(t, s, "GET", base, nil).Body.Bytes()); !reflect.DeepEqual(after, st) {
		t.Fatalf("status after the panic: %+v, want the pre-event %+v", after, st)
	}
	var sz statszResponse
	if err := json.Unmarshal(do(t, s, "GET", "/statsz", nil).Body.Bytes(), &sz); err != nil {
		t.Fatalf("statsz JSON: %v", err)
	}
	if sz.Churn.Panics != 1 || sz.ServerErrors != 1 || sz.Churn.Events != 0 {
		t.Fatalf("statsz after the panic: server_errors %d, churn %+v", sz.ServerErrors, sz.Churn)
	}
	rec = do(t, s, "POST", base+"/event", []byte(`{"kind":"drift","slot":0,"factor":1.3}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("event after the panic: %d (%s), want 200", rec.Code, rec.Body.String())
	}
}

// TestScenarioNoGoroutineLeak pins that sessions own no goroutines:
// after a busy create/event/delete mix and Close, the goroutine count
// returns to the baseline.
func TestScenarioNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Workers: 2})
	for i := 0; i < 3; i++ {
		rec := do(t, s, "POST", "/v1/scenario",
			[]byte(fmt.Sprintf(`{"scenario":{"events":2,"min_ops":4,"max_ops":6},"seed":%d}`, i+1)))
		if rec.Code != http.StatusOK {
			t.Fatalf("create %d: %d (%s)", i, rec.Code, rec.Body.String())
		}
		st := scenarioStatus(t, rec.Body.Bytes())
		do(t, s, "POST", fmt.Sprintf("/v1/scenario/%s/event", st.ID),
			[]byte(`{"kind":"drift","slot":0,"factor":1.2}`))
		if i%2 == 0 {
			do(t, s, "DELETE", "/v1/scenario/"+st.ID, nil)
		}
	}
	s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// FuzzScenarioSpec feeds random create bodies through the handler's
// parse and validate step (no engine run): every body must get a 4xx,
// or be accepted with a worst case — max(initial_apps, max_apps)
// applications of max_ops each, after the generator's defaults — and a
// generated event stream whose live operator count both stay within
// the server's cap.
func FuzzScenarioSpec(f *testing.F) {
	for _, body := range []string{
		`{"scenario":{"min_ops":60}}`,
		`{"scenario":{"initial_apps":40,"min_ops":5,"max_ops":5}}`,
		`{"scenario":{"max_apps":40,"max_ops":5},"seed":3}`,
		`{"scenario":{"initial_apps":2,"events":30,"min_ops":4,"max_ops":6},"seed":3}`,
		`{"scenario":{"max_ops":500}}`,
		`{"scenario":{"min_ops":9,"max_ops":4}}`,
		`{"scenario":{"arrive_frac":1,"max_apps":8,"events":50},"policy":"resolve"}`,
		`{}`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	const maxOps = 50
	f.Fuzz(func(t *testing.T, body []byte) {
		create, herr := parseScenarioCreate(body, maxOps)
		if herr != nil {
			if herr.status < 400 || herr.status >= 500 {
				t.Fatalf("status %d (%s), want 4xx", herr.status, herr.msg)
			}
			return
		}
		eff := create.cfg.WithDefaults()
		if worst := float64(max(eff.InitialApps, eff.MaxApps)) * float64(eff.MaxOps); worst > maxOps {
			t.Fatalf("accepted %s: up to %g operators live, cap %d", body, worst, maxOps)
		}
		sc := churn.NewScenario(create.cfg, create.req.Seed)
		var live []int // operators per live application
		for _, a := range sc.Initial {
			live = append(live, a.NumOps)
		}
		for i := 0; ; i++ {
			ops := 0
			for _, n := range live {
				ops += n
			}
			if ops > maxOps {
				t.Fatalf("accepted %s: %d operators live after %d events, cap %d", body, ops, i, maxOps)
			}
			if i == len(sc.Events) {
				break
			}
			switch ev := sc.Events[i]; ev.Kind {
			case churn.Arrive:
				live = append(live, ev.NumOps)
			case churn.Depart:
				live = append(live[:ev.Slot], live[ev.Slot+1:]...)
			}
		}
	})
}

// TestScenarioCapBeforeWork requires the session cap to answer before
// the initial solve: at the cap even an infeasible create answers 429,
// and a create that fails below the cap gives its reserved slot back.
func TestScenarioCapBeforeWork(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	infeasible := []byte(`{"scenario":{"initial_apps":1,"min_ops":3,"max_ops":3,"rho":1e12},"seed":1}`)
	feasible := []byte(`{"scenario":{"initial_apps":1,"min_ops":3,"max_ops":3},"seed":1}`)
	// Stand-in sessions fill all but one slot.
	s.scenMu.Lock()
	for i := 0; i < maxScenarios-1; i++ {
		s.scenarios[fmt.Sprintf("filler%d", i)] = &scenarioSession{}
		s.scenSlots <- struct{}{}
	}
	s.scenMu.Unlock()
	for i := 0; i < 2; i++ {
		if rec := do(t, s, "POST", "/v1/scenario", infeasible); rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("infeasible create %d below the cap: %d (%s), want 422", i, rec.Code, rec.Body.String())
		}
	}
	if rec := do(t, s, "POST", "/v1/scenario", feasible); rec.Code != http.StatusOK {
		t.Fatalf("create into the last slot after failed creates: %d (%s)", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, "POST", "/v1/scenario", infeasible); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("infeasible create at the cap: %d (%s), want 429", rec.Code, rec.Body.String())
	}
	s.scenMu.Lock()
	taken, live := len(s.scenSlots), len(s.scenarios)
	s.scenMu.Unlock()
	if taken != live {
		t.Fatalf("%d slots taken by %d live sessions after every create answered", taken, live)
	}
}
