package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/simfarm"
)

// expectation is what runSpec checks about one directive body. The zero
// value expects Decode to accept the body and checks nothing else.
type expectation struct {
	err    string // Decode refuses with an error containing this
	errAs  any    // ...and errors.As finds this target in it
	label  string // label(spec) of the accepted spec
	golden string // Run's bytes and trail match testdata/golden/<golden>
}

type expect func(*expectation)

// ExpectErr expects Decode to refuse the body with an error containing
// substr.
func ExpectErr(substr string) expect { return func(e *expectation) { e.err = substr } }

// ExpectErrAs expects Decode to refuse the body with an error that
// errors.As unwraps into target.
func ExpectErrAs(target any) expect { return func(e *expectation) { e.errAs = target } }

// ExpectLabel expects the accepted spec to carry this label: the row
// label of its fleet or churn scenario, or a sweep's matrix shape
// "directives×plans×seeds".
func ExpectLabel(l string) expect { return func(e *expectation) { e.label = l } }

// ExpectResult expects Run to return exactly the bytes of
// testdata/golden/<name>.json and to emit exactly the trail of
// testdata/golden/<name>.events.json. The golden files were written by
// the ninjad job handler that predates this package, so they pin the
// bytes ninjad commits and the events it streams; sweep-default was
// written by Run while the sweep matrices were still simfarm literals.
func ExpectResult(name string) expect { return func(e *expectation) { e.golden = name } }

// runSpec decodes body and checks every expectation in opts.
func runSpec(t *testing.T, body string, opts ...expect) {
	t.Helper()
	var want expectation
	for _, o := range opts {
		o(&want)
	}
	spec, err := Decode([]byte(body))
	if want.err != "" || want.errAs != nil {
		if err == nil {
			t.Fatalf("Decode(%s) accepted, want an error containing %q", body, want.err)
		}
		if !strings.Contains(err.Error(), want.err) {
			t.Fatalf("Decode(%s) = %v, want an error containing %q", body, err, want.err)
		}
		if want.errAs != nil && !errors.As(err, want.errAs) {
			t.Fatalf("Decode(%s) = %v, want one errors.As finds a %T in", body, err, want.errAs)
		}
		return
	}
	if err != nil {
		t.Fatalf("Decode(%s): %v", body, err)
	}
	if want.label != "" {
		if got := label(spec); got != want.label {
			t.Errorf("Decode(%s) label %q, want %q", body, got, want.label)
		}
	}
	if want.golden != "" {
		checkGolden(t, spec, want.golden)
	}
}

func label(s Spec) string {
	switch {
	case s.Fleet != nil:
		_, sc := s.Fleet.scenario(s.Kind)
		return sc.Label()
	case s.Churn != nil:
		_, sc := s.Churn.scenario()
		return sc.Label()
	}
	m, err := s.Sweep.matrix()
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("%d×%d×%d", len(m.Directives), m.Rows()/len(m.Directives), m.Runs()/m.Rows())
}

// goldenEvent is an event as ninjad streams it, less its sequence number
// and wall-clock stamp.
type goldenEvent struct {
	Kind    string  `json:"kind"`
	Phase   string  `json:"phase,omitempty"`
	Subject string  `json:"subject,omitempty"`
	Detail  string  `json:"detail,omitempty"`
	Sim     float64 `json:"sim_s,omitempty"`
}

func checkGolden(t *testing.T, spec Spec, name string) {
	t.Helper()
	var trail []goldenEvent
	got, err := Run(context.Background(), spec, func(ev metrics.Event) {
		trail = append(trail, goldenEvent{string(ev.Kind), ev.Phase, ev.Subject, ev.Detail, ev.At.Seconds()})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, '\n'); !bytes.Equal(got, want) {
		t.Errorf("result differs from golden %s:\n got %s\nwant %s", name, got, want)
	}
	gotTrail, err := json.MarshalIndent(trail, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	wantTrail, err := os.ReadFile(filepath.Join("testdata", "golden", name+".events.json"))
	if err != nil {
		t.Fatal(err)
	}
	if gotTrail = append(gotTrail, '\n'); !bytes.Equal(gotTrail, wantTrail) {
		t.Errorf("trail differs from golden %s.events.json:\n got %s\nwant %s", name, gotTrail, wantTrail)
	}
}

func TestSpecs(t *testing.T) {
	var oe *simfarm.OptionsError
	for _, c := range []struct {
		name string
		body string
		opts []expect
	}{
		// Defaults and labels.
		{"empty is an evacuation", `{}`, []expect{ExpectLabel("greedy/sequential")}},
		{"swap batched", `{"placement":"swap","batched":true,"cap":4}`, []expect{ExpectLabel("swap/batched(cap=4)")}},
		{"rolling default cap", `{"kind":"rolling-maintenance"}`, []expect{ExpectLabel("rolling(cap=2)/greedy")}},
		{"rolling cap", `{"kind":"rolling-maintenance","placement":"swap","max_in_flight":3}`, []expect{ExpectLabel("rolling(cap=3)/swap")}},
		{"evacuate rdma maxflow", `{"kind":"evacuate","placement":"swap","batched":true,"seq":"maxflow","mode":"rdma"}`,
			[]expect{ExpectLabel("swap/maxflow+rdma")}},
		{"churn", `{"kind":"churn","placement":"swap","seed":3}`, []expect{ExpectLabel("destination-swap")}},
		{"sweep shape", `{"kind":"sweep","jobs":2,"seeds":2}`, []expect{ExpectLabel("4×3×2")}},
		{"churn sweep plan", `{"kind":"sweep","matrix":"churn","fault_plans":["node-crash"]}`, []expect{ExpectLabel("2×1×16")}},
		{"case-variant kind", `{"KIND":"churn","Placement":"swap"}`, []expect{ExpectLabel("destination-swap")}},
		{"duplicate kind, last wins", `{"kind":"churn","kind":"evacuate","batched":true}`, []expect{ExpectLabel("greedy/batched")}},

		// Refusals: not one JSON object.
		{"null", `null`, []expect{ExpectErr("must be a JSON object")}},
		{"bad json", `{nope`, []expect{ExpectErr("invalid character")}},
		{"trailing data", `{}0`, []expect{ExpectErr("after top-level value")}},
		// Refusals: kind.
		{"unknown kind", `{"kind":"explode"}`, []expect{ExpectErr(`unknown kind "explode"`)}},
		{"consolidate", `{"kind":"consolidate"}`, []expect{ExpectErr("no packing headroom")}},
		// Refusals: a field the kind does not take, even when zero.
		{"typo", `{"placment":"swap"}`, []expect{ExpectErr(`unknown field "placment"`)}},
		{"evacuate seeds", `{"kind":"evacuate","seeds":4}`, []expect{ExpectErr(`unknown field "seeds"`)}},
		{"evacuate seed", `{"kind":"evacuate","seed":7}`, []expect{ExpectErr(`unknown field "seed"`)}},
		{"evacuate null plans", `{"kind":"evacuate","fault_plans":null}`, []expect{ExpectErr(`unknown field "fault_plans"`)}},
		{"churn seeds", `{"kind":"churn","seeds":4}`, []expect{ExpectErr(`unknown field "seeds"`)}},
		{"churn batched", `{"kind":"churn","batched":true}`, []expect{ExpectErr(`unknown field "batched"`)}},
		{"churn zero cap", `{"kind":"churn","cap":0}`, []expect{ExpectErr(`unknown field "cap"`)}},
		{"churn empty mode", `{"kind":"churn","mode":""}`, []expect{ExpectErr(`unknown field "mode"`)}},
		{"sweep placement", `{"kind":"sweep","placement":"swap"}`, []expect{ExpectErr(`unknown field "placement"`)}},
		{"sweep empty placement", `{"kind":"sweep","placement":""}`, []expect{ExpectErr(`unknown field "placement"`)}},
		// Refusals: values.
		{"bad placement", `{"placement":"random"}`, []expect{ExpectErr(`unknown placement "random"`)}},
		{"bad seq", `{"kind":"churn","seq":"fifo"}`, []expect{ExpectErr(`unknown SeqPolicy.Mode "fifo"`)}},
		{"bad mode", `{"mode":"warp"}`, []expect{ExpectErr(`unknown mode "warp"`)}},
		{"negative cap", `{"cap":-1}`, []expect{ExpectErr("negative counts")}},
		{"negative jobs", `{"kind":"sweep","jobs":-1}`, []expect{ExpectErr("negative counts")}},
		{"negative seeds", `{"kind":"sweep","seeds":-1}`, []expect{ExpectErr("negative counts")}},
		{"negative churn seed", `{"kind":"churn","seed":-1}`, []expect{ExpectErr("negative counts")}},
		{"rolling return home", `{"kind":"rolling-maintenance","return_home":true}`, []expect{ExpectErr("return_home applies to evacuations only")}},
		{"bad matrix", `{"kind":"sweep","matrix":"explode"}`, []expect{ExpectErr(`unknown matrix "explode"`)}},
		{"unknown plan", `{"kind":"sweep","fault_plans":["no-such-plan"]}`, []expect{ExpectErr("no-such-plan"), ExpectErrAs(&oe)}},
		{"plan mix names the matrix's plans", `{"kind":"sweep","fault_plans":["dst-crash","bogus"]}`,
			[]expect{ExpectErr("unknown fault plan(s) [bogus] (matrix has [none dst-crash migrate-abort])"), ExpectErrAs(&oe)}},

		// Results: the bytes ninjad committed before this package existed.
		{"result small evacuate", `{"kind":"evacuate","placement":"swap","batched":true,"cap":4,"jobs":2,"vms_per_job":1}`,
			[]expect{ExpectLabel("swap/batched(cap=4)"), ExpectResult("small-evacuate")}},
		{"result idempotency other", `{"kind":"evacuate","jobs":2,"vms_per_job":1}`, []expect{ExpectResult("idempotency-other")}},
		{"result daemon live", `{"kind":"evacuate","jobs":2,"placement":"greedy","batched":true,"cap":1,"mode":"live"}`,
			[]expect{ExpectResult("daemon-evacuate-live")}},
		{"result daemon rdma", `{"kind":"evacuate","jobs":2,"placement":"swap","batched":true,"cap":2,"mode":"rdma"}`,
			[]expect{ExpectResult("daemon-evacuate-rdma")}},
		{"result empty", `{}`, []expect{ExpectResult("empty")}},
		{"result swap batched", `{"placement":"swap","batched":true,"cap":4}`, []expect{ExpectResult("swap-batched")}},
		{"result cold maxflow return", `{"kind":"evacuate","placement":"swap","batched":true,"seq":"maxflow","return_home":true,"faulted":true,"forced_rollback":true,"mode":"cold"}`,
			[]expect{ExpectResult("evacuate-maxflow-home")}},
		{"result rolling", `{"kind":"rolling-maintenance"}`, []expect{ExpectResult("rolling")}},
		{"result rolling swap", `{"kind":"rolling-maintenance","placement":"swap","max_in_flight":3}`, []expect{ExpectResult("rolling-swap")}},
		{"result churn faulted", `{"kind":"churn","placement":"swap","jobs":16,"seed":7,"faulted":true}`, []expect{ExpectResult("churn-faulted")}},
		{"result churn maxflow faulted", `{"kind":"churn","jobs":24,"seq":"maxflow","faulted":true}`,
			[]expect{ExpectLabel("greedy+maxflow+plan:node-crash"), ExpectResult("churn-maxflow-faulted")}},
		{"result daemon churn", `{"kind":"churn","jobs":32,"seed":1298498081,"placement":"greedy","faulted":false}`,
			[]expect{ExpectResult("daemon-churn")}},
		{"result daemon churn crash", `{"kind":"churn","jobs":32,"seed":2019727887,"placement":"swap","faulted":true}`,
			[]expect{ExpectResult("daemon-churn-crash")}},
		{"result churn sweep", `{"kind":"sweep","matrix":"churn","jobs":8,"seeds":2,"fault_plans":["node-crash"],"parallelism":4}`,
			[]expect{ExpectResult("churn-sweep")}},
		{"result churn sweep plans", `{"kind":"sweep","matrix":"churn","fault_plans":["node-crash"]}`, []expect{ExpectResult("churn-sweep-plans")}},
		{"result sweep default", `{"kind":"sweep","jobs":2,"seeds":2,"parallelism":2}`, []expect{ExpectResult("sweep-default")}},
	} {
		t.Run(c.name, func(t *testing.T) { runSpec(t, c.body, c.opts...) })
	}
}
