package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stream"
)

// The request parsers as they stood before inline instances decoded in
// the body's own pass: the exported SolveRequest and VerifyRequest
// decode their instance through instance.Instance's UnmarshalJSON,
// which ignores unknown fields inside it. They are kept test-only as the
// reference TestInlineDecodeMatchesReference holds the parsers to, with
// the verify results bound the parser gained later.

func refParseSolveRequest(body []byte, maxOps int) (*solveRequest, *httpError) {
	var wire SolveRequest
	if err := decodeStrict(body, &wire); err != nil {
		return nil, &httpError{http.StatusBadRequest, fmt.Sprintf("parsing request: %v", err)}
	}
	if herr := checkInstanceSpec(wire.Ref, wire.Instance, maxOps); herr != nil {
		return nil, herr
	}
	hs, herr := heuristicsFor(wire.Heuristic)
	if herr != nil {
		return nil, herr
	}
	return &solveRequest{
		inst:      wire.Instance,
		ref:       wire.Ref,
		hs:        hs,
		Seed:      wire.Seed,
		TimeoutMS: wire.TimeoutMS,
	}, nil
}

func refParseVerifyRequest(body []byte, maxOps int) (*verifyRequest, *httpError) {
	var wire VerifyRequest
	if err := decodeStrict(body, &wire); err != nil {
		return nil, &httpError{http.StatusBadRequest, fmt.Sprintf("parsing request: %v", err)}
	}
	if herr := checkInstanceSpec(wire.Ref, wire.Instance, maxOps); herr != nil {
		return nil, herr
	}
	if wire.Mapping == nil {
		return nil, &httpError{http.StatusBadRequest, "mapping is required"}
	}
	if wire.Results < 0 {
		return nil, &httpError{http.StatusBadRequest, "results must be >= 0"}
	}
	if err := (stream.Options{Results: wire.Results}).Check(); err != nil {
		return nil, &httpError{http.StatusBadRequest, err.Error()}
	}
	return &verifyRequest{
		inst:      wire.Instance,
		ref:       wire.Ref,
		spec:      *wire.Mapping,
		Results:   wire.Results,
		TimeoutMS: wire.TimeoutMS,
	}, nil
}

// TestWireStructsMirrorRequests pins the wire structs to the exported
// request types: the same fields, in the same order, with the same tags
// and types, the instance's aside.
func TestWireStructsMirrorRequests(t *testing.T) {
	for _, c := range []struct{ wire, api any }{
		{solveWire{}, SolveRequest{}},
		{verifyWire{}, VerifyRequest{}},
	} {
		w, a := reflect.TypeOf(c.wire), reflect.TypeOf(c.api)
		if w.NumField() != a.NumField() {
			t.Fatalf("%v has %d fields, %v has %d", w, w.NumField(), a, a.NumField())
		}
		for i := 0; i < w.NumField(); i++ {
			fw, fa := w.Field(i), a.Field(i)
			if fw.Name != fa.Name || fw.Tag != fa.Tag {
				t.Errorf("%v field %d is %s `%s`, %v has %s `%s`", w, i, fw.Name, fw.Tag, a, fa.Name, fa.Tag)
			}
			if fw.Name != "Instance" && fw.Type != fa.Type {
				t.Errorf("%v.%s is %v, %v has %v", w, fw.Name, fw.Type, a, fa.Type)
			}
		}
	}
}

// TestInlineDecodeMatchesReference runs the parsers and the reference
// on the serve testdata (as sent, and with each ref swapped for the
// instance it names), the FuzzParseRequests seeds, and generated inline
// solve and verify bodies at N in {1, 10, 40, 140}. Both must answer the
// same status and, on success, a reflect.DeepEqual request, derived
// instance included. The one intended difference: an unknown field
// nested in an inline instance now answers 400, where the reference
// ignored it.
func TestInlineDecodeMatchesReference(t *testing.T) {
	const maxOps = 500
	mapping := `,"mapping":{"procs":[{"cpu":0,"nic":0}],"assign":[0],"downloads":[]}`
	bodies := fuzzSeeds(t)
	for _, name := range []string{"solve_request.json", "verify_request.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(data, &fields); err != nil {
			t.Fatal(err)
		}
		var ref CorpusRef
		if err := json.Unmarshal(fields["ref"], &ref); err != nil || ref.N == 0 {
			t.Fatalf("%s names no ref: %v", name, err)
		}
		delete(fields, "ref")
		fields["instance"] = genInstanceJSON(t, ref.N, ref.Alpha, ref.Seed)
		inline, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, inline)
	}
	for _, n := range []int{1, 10, 40, 140} {
		inst := string(genInstanceJSON(t, n, 1.2, int64(n)))
		bodies = append(bodies,
			[]byte(`{"instance":`+inst+`,"heuristic":"Comp-Greedy","seed":3,"timeout_ms":900}`),
			[]byte(`{"instance":`+inst+mapping+`,"results":40}`),
			[]byte(`{"instance":`+inst+`,"ref":{"n":4,"seed":1}}`),
			[]byte(`{"instance":`+strings.Replace(inst, `"Rho":1`, `"Rho":"1"`, 1)+`}`),
			[]byte(`{"instance":`+inst+`} {}`),
		)
	}
	nested := map[string]bool{}
	for _, b := range nestedUnknownBodies(t) {
		nested[string(b)] = true
	}
	status := func(herr *httpError) int {
		if herr == nil {
			return http.StatusOK
		}
		return herr.status
	}
	inline := 0 // bodies whose inline instance both sides accepted
	for i, body := range bodies {
		sreq, sErr := parseSolveRequest(body, maxOps)
		sWant, sWantErr := refParseSolveRequest(body, maxOps)
		vreq, vErr := parseVerifyRequest(body, maxOps)
		vWant, vWantErr := refParseVerifyRequest(body, maxOps)
		if nested[string(body)] {
			if status(sErr) != http.StatusBadRequest || status(vErr) != http.StatusBadRequest {
				t.Errorf("body %d: nested unknown field answered %d/%d, want 400", i, status(sErr), status(vErr))
			}
			continue
		}
		if status(sErr) != status(sWantErr) || !reflect.DeepEqual(sreq, sWant) {
			t.Errorf("body %d: solve parse gives %d %+v, reference %d %+v", i, status(sErr), sreq, status(sWantErr), sWant)
		}
		if status(vErr) != status(vWantErr) || !reflect.DeepEqual(vreq, vWant) {
			t.Errorf("body %d: verify parse gives %d %+v, reference %d %+v", i, status(vErr), vreq, status(vWantErr), vWant)
		}
		if (sreq != nil && sreq.inst != nil) || (vreq != nil && vreq.inst != nil) {
			inline++
		}
	}
	if len(nested) == 0 || inline < 10 {
		t.Fatalf("inputs cover %d nested unknown-field bodies and %d accepted inline instances", len(nested), inline)
	}
}
