package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseSpec feeds arbitrary bodies to parseSpec, the first code to
// read an untrusted POST /jobs directive. Properties: parseSpec never
// panics; it accepts only a body that is exactly one JSON object;
// sweepMatrix never panics on an accepted spec; and an accepted spec
// re-marshals to a body that is accepted again and maps onto the
// same experiment — equal scenario() results, or equal sweepMatrix()
// results for a sweep. The seed corpus (testdata/fuzz/FuzzParseSpec)
// holds every directive the server tests send, the churn and evacuate
// shapes the benchmark's daemon workload posts, a few more sweep and
// evacuate shapes, and past failures.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := parseSpec(json.RawMessage(body))
		if err != nil {
			return
		}
		if b := bytes.TrimSpace(body); !json.Valid(b) || b[0] != '{' {
			t.Fatalf("accepted %q, which is not exactly one JSON object", body)
		}
		m1, err1 := spec.sweepMatrix()
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted %q but cannot re-marshal it: %v", body, err)
		}
		spec2, err := parseSpec(again)
		if err != nil {
			t.Fatalf("accepted %q but refused its re-marshalled form %s: %v", body, again, err)
		}
		if spec.Kind == "sweep" {
			m2, err2 := spec2.sweepMatrix()
			if err1 != nil || err2 != nil || !reflect.DeepEqual(m1, m2) {
				t.Fatalf("%q and its re-marshalled form %s build different sweeps (errors %v, %v)", body, again, err1, err2)
			}
			return
		}
		cfg1, sc1 := spec.scenario()
		cfg2, sc2 := spec2.scenario()
		if !reflect.DeepEqual(cfg1, cfg2) || !reflect.DeepEqual(sc1, sc2) {
			t.Fatalf("%q and its re-marshalled form %s map onto different scenarios", body, again)
		}
	})
}
