package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary bodies to Decode, the first code to read an
// untrusted POST /jobs directive. Properties: Decode never panics; it
// accepts only a body that is exactly one JSON object; the accepted kind
// is the kind a plain json.Unmarshal reads (so case-variant or duplicate
// "kind" keys cannot make the kind check and the body decode disagree);
// and an accepted spec re-marshals to a body that is accepted again and
// maps onto the same experiment — equal fleet or churn scenarios, or an
// equal sweep matrix and directive Specs. The seed corpus (testdata/fuzz/FuzzDecode) holds
// every directive the ninjad server tests send, the churn and evacuate
// shapes the benchmark's daemon workload posts, a few more sweep and
// evacuate shapes, and past failures.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := Decode(body)
		if err != nil {
			return
		}
		if b := bytes.TrimSpace(body); !json.Valid(b) || b[0] != '{' {
			t.Fatalf("accepted %q, which is not exactly one JSON object", body)
		}
		var plain struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(body, &plain); err != nil {
			t.Fatalf("accepted %q, which json.Unmarshal refuses: %v", body, err)
		}
		if plain.Kind == "" {
			plain.Kind = KindEvacuate
		}
		if spec.Kind != plain.Kind {
			t.Fatalf("%q decoded as kind %q, json.Unmarshal reads %q", body, spec.Kind, plain.Kind)
		}
		var again []byte
		switch {
		case spec.Fleet != nil:
			again, err = json.Marshal(spec.Fleet)
		case spec.Churn != nil:
			again, err = json.Marshal(spec.Churn)
		default:
			again, err = json.Marshal(spec.Sweep)
		}
		if err != nil {
			t.Fatalf("accepted %q but cannot re-marshal it: %v", body, err)
		}
		spec2, err := Decode(again)
		if err != nil {
			t.Fatalf("accepted %q but refused its re-marshalled form %s: %v", body, again, err)
		}
		if spec2.Kind != spec.Kind {
			t.Fatalf("%q re-marshalled to %s, which decodes as kind %q", body, again, spec2.Kind)
		}
		switch {
		case spec.Fleet != nil:
			cfg1, sc1 := spec.Fleet.scenario(spec.Kind)
			cfg2, sc2 := spec2.Fleet.scenario(spec2.Kind)
			if !reflect.DeepEqual(cfg1, cfg2) || !reflect.DeepEqual(sc1, sc2) {
				t.Fatalf("%q and its re-marshalled form %s map onto different fleet scenarios", body, again)
			}
		case spec.Churn != nil:
			cfg1, sc1 := spec.Churn.scenario()
			cfg2, sc2 := spec2.Churn.scenario()
			if !reflect.DeepEqual(cfg1, cfg2) || !reflect.DeepEqual(sc1, sc2) {
				t.Fatalf("%q and its re-marshalled form %s map onto different churn scenarios", body, again)
			}
		case spec.Sweep != nil:
			m1, err1 := sweepShape(spec.Sweep)
			m2, err2 := sweepShape(spec2.Sweep)
			if err1 != nil || err2 != nil || !reflect.DeepEqual(m1, m2) {
				t.Fatalf("%q and its re-marshalled form %s build different sweeps (errors %v, %v)", body, again, err1, err2)
			}
		default:
			t.Fatalf("accepted %q with no body", body)
		}
	})
}

// sweepShape is what a sweep body builds, less the directives' run
// functions, which reflect cannot compare: the named directive Specs the
// runs map, and the farm matrix with each directive's name and victim
// lists.
func sweepShape(w *Sweep) (any, error) {
	m, err := w.matrix()
	if err != nil {
		return nil, err
	}
	for i := range m.Directives {
		m.Directives[i].Run = nil
	}
	return []any{matrices[w.Matrix](w.Jobs).directives, m}, nil
}
