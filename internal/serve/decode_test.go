package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/instance"
	"repro/internal/stream"
)

// tinyPlatform is a one-server, one-configuration platform in the wire
// form, so the malformed instances below stay around 400 bytes.
const tinyPlatform = `"Platform":{"Catalog":{"CPUs":[{"SpeedGHz":11.72,"Upcharge":0}],` +
	`"NICs":[{"Gbps":1,"Upcharge":0}],"Base":7548},"Servers":[{"NICMBps":10000}],` +
	`"ServerLinkMBps":1000,"ProcLinkMBps":1000}`

// malformedInstances are inline instances whose trees cannot be derived:
// deriving them before validation indexes out of range or, for the child
// cycle, never terminates.
var malformedInstances = map[string]string{
	"leaf object out of range": `{"Tree":{"Ops":[{"Parent":-1,"ChildOps":[],"Leaves":[0]}],` +
		`"Leaves":[{"Object":99,"Parent":0}],"Root":0},"NumTypes":1,"Sizes":[10],"Freqs":[0.5],` +
		`"Holders":[[0]],` + tinyPlatform + `,"Rho":1,"Alpha":1}`,
	"root out of range": `{"Tree":{"Ops":[{"Parent":-1,"ChildOps":[],"Leaves":[0]}],` +
		`"Leaves":[{"Object":0,"Parent":0}],"Root":7},"NumTypes":1,"Sizes":[10],"Freqs":[0.5],` +
		`"Holders":[[0]],` + tinyPlatform + `,"Rho":1,"Alpha":1}`,
	"child cycle": `{"Tree":{"Ops":[{"Parent":-1,"ChildOps":[1],"Leaves":[0]},` +
		`{"Parent":0,"ChildOps":[0],"Leaves":[]}],"Leaves":[{"Object":0,"Parent":0}],"Root":0},` +
		`"NumTypes":1,"Sizes":[10],"Freqs":[0.5],"Holders":[[0]],` + tinyPlatform + `,"Rho":1,"Alpha":1}`,
}

// malformedBodies wraps every malformed instance in a solve and a verify
// request, keyed by endpoint path.
func malformedBodies() map[string]map[string]string {
	solve, verify := map[string]string{}, map[string]string{}
	for name, inst := range malformedInstances {
		solve[name] = `{"instance":` + inst + `}`
		verify[name] = `{"instance":` + inst + `,"mapping":{"procs":[{"cpu":0,"nic":0}],"assign":[0],"downloads":[]}}`
	}
	return map[string]map[string]string{"/v1/solve": solve, "/v1/verify": verify}
}

// TestMalformedInlineInstanceIs400 pins that an inline instance is
// validated before it is derived: each malformed body answers 400 on
// both endpoints, promptly, instead of panicking or hanging the handler
// before any deadline exists.
func TestMalformedInlineInstanceIs400(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for path, bodies := range malformedBodies() {
		for name, body := range bodies {
			done := make(chan *httptest.ResponseRecorder, 1)
			go func() { done <- do(t, s, "POST", path, []byte(body)) }()
			select {
			case rec := <-done:
				if rec.Code != http.StatusBadRequest {
					t.Errorf("%s %s: status %d, want 400 (%s)", path, name, rec.Code, rec.Body.String())
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s %s: no answer within 5s", path, name)
			}
		}
	}
}

// nestedUnknownBodies are solve and verify bodies whose inline instance
// carries a field Instance does not have, at its top level and inside
// its tree. Request decoding rejects unknown fields at every depth, so
// each answers 400.
func nestedUnknownBodies(tb testing.TB) [][]byte {
	inst := string(genInstanceJSON(tb, 3, 0.9, 1))
	mapping := `,"mapping":{"procs":[{"cpu":0,"nic":0}],"assign":[0,0,0],"downloads":[]}`
	var out [][]byte
	for _, bad := range []string{
		strings.Replace(inst, `{`, `{"Bogus":1,`, 1),
		strings.Replace(inst, `{"Tree":{`, `{"Tree":{"Extra":true,`, 1),
	} {
		out = append(out, []byte(`{"instance":`+bad+`}`), []byte(`{"instance":`+bad+mapping+`}`))
	}
	return out
}

// oversizedResults are verify results counts above the stream engine's
// default event budget: a run asking for them could never finish, and
// the larger one is past what the daemon could allocate.
var oversizedResults = []int64{100_000_000, 1_099_511_627_776}

// withResults is the committed verify request with a results count.
func withResults(tb testing.TB, results int64) []byte {
	data, err := os.ReadFile(filepath.Join("testdata", "verify_request.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return []byte(strings.Replace(string(data), "{", fmt.Sprintf(`{"results":%d,`, results), 1))
}

// TestVerifyResultsBeyondEventBudgetIs400 pins the bound on a verify's
// results count: each oversized body answers 400 before admission,
// without sizing a buffer for it, and the server goes on answering.
func TestVerifyResultsBeyondEventBudgetIs400(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for _, n := range oversizedResults {
		if rec := do(t, s, "POST", "/v1/verify", withResults(t, n)); rec.Code != http.StatusBadRequest {
			t.Fatalf("results %d: status %d, want 400 (%s)", n, rec.Code, rec.Body.String())
		}
	}
	if rec := do(t, s, "POST", "/v1/verify", withResults(t, 60)); rec.Code != http.StatusOK {
		t.Fatalf("verify after the refused bodies: %d %s", rec.Code, rec.Body.String())
	}
	if st := statsz(t, s); st.PerWorker[0].Jobs != 1 {
		t.Fatalf("arena jobs = %d, want only the valid verify admitted", st.PerWorker[0].Jobs)
	}
}

// TestUnknownFieldIs400OnEveryRoute sends each route that reads a body
// a valid body plus a field its request type does not have: every one
// answers 400 naming the field, and none of them acts.
func TestUnknownFieldIs400OnEveryRoute(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	rec := do(t, s, "POST", "/v1/sweep", []byte(`{"figure":"fig2a","seeds":2,"base_seed":1,"shards":1}`))
	var sub coord.SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	st := scenarioStatus(t, do(t, s, "POST", "/v1/scenario",
		[]byte(`{"scenario":{"min_ops":4,"max_ops":6},"seed":1}`)).Body.Bytes())
	verify := string(withResults(t, 60))
	for _, c := range []struct{ route, path, body string }{
		{"solve", "/v1/solve", `{"ref":{"n":5,"seed":1},"bogus":1}`},
		{"verify", "/v1/verify", strings.Replace(verify, "{", `{"bogus":1,`, 1)},
		{"sweep submit", "/v1/sweep", `{"figure":"fig2a","seeds":2,"shards":1,"bogus":1}`},
		{"sweep claim any", "/v1/sweep/lease", `{"worker":"a","bogus":1}`},
		{"sweep claim", "/v1/sweep/" + sub.ID + "/lease", `{"worker":"a","bogus":1}`},
		{"sweep renew", "/v1/sweep/" + sub.ID + "/renew", `{"shard":0,"token":"t","bogus":1}`},
		{"sweep complete", "/v1/sweep/" + sub.ID + "/complete", `{"shard":0,"token":"t","cells":"","bogus":1}`},
		{"sweep batch complete", "/v1/sweep/" + sub.ID + "/complete", `{"items":[{"shard":0,"token":"t","cells":"","bogus":1}]}`},
		{"scenario create", "/v1/scenario", `{"scenario":{"min_ops":4,"max_ops":6},"seed":1,"bogus":1}`},
		{"scenario create spec", "/v1/scenario", `{"scenario":{"min_ops":4,"max_ops":6,"bogus":1},"seed":1}`},
		{"scenario event", "/v1/scenario/" + st.ID + "/event", `{"kind":"drift","slot":0,"factor":1.1,"bogus":1}`},
	} {
		t.Run(c.route, func(t *testing.T) {
			rec := do(t, s, "POST", c.path, []byte(c.body))
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `unknown field \"bogus\"`) {
				t.Fatalf("status %d (%s), want 400 naming the unknown field", rec.Code, rec.Body.String())
			}
		})
	}
	sz := statsz(t, s)
	if sz.Sweep.JobsSubmitted != 1 || sz.Sweep.LeasesGranted != 0 || sz.PerWorker[0].Jobs != 0 {
		t.Fatalf("a refused body acted: sweep %+v, arena jobs %d", sz.Sweep, sz.PerWorker[0].Jobs)
	}
	if rec := do(t, s, "GET", "/v1/scenario/"+st.ID, nil); scenarioStatus(t, rec.Body.Bytes()).Events != 0 {
		t.Fatalf("a refused event was applied: %s", rec.Body.String())
	}
}

// fuzzSeeds is FuzzParseRequests' seed corpus: the committed request
// testdata, the malformed and nested-unknown-field inline bodies, the
// oversized verify results counts, and one small generated inline
// instance.
func fuzzSeeds(tb testing.TB) [][]byte {
	var out [][]byte
	for _, name := range []string{"solve_request.json", "verify_request.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	for _, bodies := range malformedBodies() {
		for _, body := range bodies {
			out = append(out, []byte(body))
		}
	}
	out = append(out, nestedUnknownBodies(tb)...)
	for _, n := range oversizedResults {
		out = append(out, withResults(tb, n))
	}
	return append(out, []byte(`{"instance":`+string(genInstanceJSON(tb, 3, 0.9, 1))+`}`))
}

// FuzzParseRequests drives the solve and verify request decoders with
// arbitrary bodies. Each must answer a 4xx, or hand back a request whose
// inline instance (if any) passes Validate — never panic.
func FuzzParseRequests(f *testing.F) {
	for _, body := range fuzzSeeds(f) {
		f.Add(body)
	}
	const maxOps = 500
	f.Fuzz(func(t *testing.T, body []byte) {
		check := func(kind string, inst *instance.Instance, herr *httpError) {
			switch {
			case herr != nil:
				if herr.status < 400 || herr.status >= 500 {
					t.Fatalf("%s: status %d (%s), want 4xx", kind, herr.status, herr.msg)
				}
			case inst != nil:
				if err := inst.Validate(); err != nil {
					t.Fatalf("%s: accepted an invalid instance: %v", kind, err)
				}
			}
		}
		var inst *instance.Instance
		sreq, herr := parseSolveRequest(body, maxOps)
		if herr == nil {
			inst = sreq.inst
		}
		check("solve", inst, herr)
		inst = nil
		vreq, herr := parseVerifyRequest(body, maxOps)
		if herr == nil {
			inst = vreq.inst
			if err := (stream.Options{Results: vreq.Results}).Check(); err != nil {
				t.Fatalf("verify: accepted results %d the engine refuses: %v", vreq.Results, err)
			}
		}
		check("verify", inst, herr)
	})
}
