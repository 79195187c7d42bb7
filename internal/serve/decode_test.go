package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/instance"
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

// fuzzSeeds is FuzzParseRequests' seed corpus: the committed request
// testdata, the malformed and nested-unknown-field inline bodies, and
// one small generated inline instance.
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
		}
		check("verify", inst, herr)
	})
}
