package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/churn"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/simfarm"
)

// smallSpec is a 2-job, 1-VM-per-job evacuation: the smallest fleet the
// testbed deploys, a few milliseconds of wall clock per run.
const smallSpec = `{"kind":"evacuate","placement":"swap","batched":true,"cap":4,"jobs":2,"vms_per_job":1}`

func startDaemon(t *testing.T, stateDir string) *daemon {
	t.Helper()
	d, err := newDaemon(daemonConfig{
		Addr:     "127.0.0.1:0",
		StateDir: stateDir,
		Workers:  2,
		Lease:    time.Second,
		Backoff:  5 * time.Millisecond,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.srv.Close()
		d.mgr.Abandon()
	})
	return d
}

func httpJSON(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func waitDone(t *testing.T, d *daemon, id string) jobs.Record {
	t.Helper()
	base := "http://" + d.addr()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := httpJSON(t, "GET", base+"/jobs/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d: %s", id, code, body)
		}
		var rec jobs.Record
		if err := json.Unmarshal(body, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.State.Terminal() {
			if rec.State != jobs.Done {
				t.Fatalf("job %s ended %s: %s (events %+v)", id, rec.State, rec.Error, rec.Events)
			}
			return rec
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, rec.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitLifecycleOverHTTP(t *testing.T) {
	d := startDaemon(t, t.TempDir())
	base := "http://" + d.addr()

	code, body := httpJSON(t, "GET", base+"/healthz", "")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"ok": true`)) {
		t.Fatalf("healthz = %d: %s", code, body)
	}

	code, body = httpJSON(t, "POST", base+"/jobs",
		fmt.Sprintf(`{"id":"evac-1","directive":%s}`, smallSpec))
	if code != http.StatusCreated {
		t.Fatalf("submit = %d: %s", code, body)
	}
	rec := waitDone(t, d, "evac-1")

	var res scenario.FleetResult
	if err := json.Unmarshal(rec.Result, &res); err != nil {
		t.Fatalf("result not a scenario.FleetResult: %v: %s", err, rec.Result)
	}
	if res.Jobs != 2 || !res.DeadlineMet || res.Scenario != "swap/batched(cap=4)" {
		t.Fatalf("result = %+v", res)
	}
	if len(res.PerJob) != 2 || res.PerJob[0].Outcome != "clean" {
		t.Fatalf("per-job outcomes = %+v", res.PerJob)
	}
	// The fleet trail streamed into the job's events, sim-stamped.
	simEvents := 0
	for _, ev := range rec.Events {
		if ev.Sim > 0 {
			simEvents++
		}
	}
	if simEvents == 0 {
		t.Fatalf("no fleet events on the trail: %+v", rec.Events)
	}

	code, body = httpJSON(t, "GET", base+"/jobs", "")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"evac-1"`)) {
		t.Fatalf("list = %d: %s", code, body)
	}
}

func TestSubmitIdempotencyOverHTTP(t *testing.T) {
	d := startDaemon(t, t.TempDir())
	base := "http://" + d.addr()
	body := fmt.Sprintf(`{"id":"dup-1","directive":%s}`, smallSpec)

	if code, resp := httpJSON(t, "POST", base+"/jobs", body); code != http.StatusCreated {
		t.Fatalf("first submit = %d: %s", code, resp)
	}
	// A retried POST (client lost the response) is a 200, not a duplicate.
	if code, resp := httpJSON(t, "POST", base+"/jobs", body); code != http.StatusOK {
		t.Fatalf("resubmit = %d: %s", code, resp)
	}
	// Same ID, different directive: conflict.
	other := fmt.Sprintf(`{"id":"dup-1","directive":%s}`,
		`{"kind":"evacuate","jobs":2,"vms_per_job":1}`)
	if code, resp := httpJSON(t, "POST", base+"/jobs", other); code != http.StatusConflict {
		t.Fatalf("mismatched resubmit = %d: %s", code, resp)
	}
}

// One refused body per refusal path of POST /jobs; which directives
// scenario.Decode refuses is pinned by the scenario package's tests.
func TestSubmitRejectsBadDirectives(t *testing.T) {
	d := startDaemon(t, t.TempDir())
	base := "http://" + d.addr()
	for name, body := range map[string]string{
		"bad json":       `{nope`,
		"envelope field": `{"id":"x","directive":{},"extra":1}`,
		"trailing data":  `{"id":"x","directive":{}} {}`,
		"no directive":   `{"id":"x"}`,
		"bad directive":  `{"id":"x","directive":{"kind":"consolidate"}}`,
		"bad id":         `{"id":"../x","directive":{}}`,
	} {
		code, resp := httpJSON(t, "POST", base+"/jobs", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400: %s", name, code, resp)
		}
	}
	if n := len(d.mgr.List()); n != 0 {
		t.Errorf("refused submissions persisted %d record(s)", n)
	}
	if code, _ := httpJSON(t, "GET", base+"/jobs/ghost", ""); code != http.StatusNotFound {
		t.Errorf("get missing = %d, want 404", code)
	}
	if code, _ := httpJSON(t, "POST", base+"/jobs/ghost/cancel", ""); code != http.StatusNotFound {
		t.Errorf("cancel missing = %d, want 404", code)
	}
}

func TestEventsEndpointStreamsTrail(t *testing.T) {
	d := startDaemon(t, t.TempDir())
	base := "http://" + d.addr()
	httpJSON(t, "POST", base+"/jobs", fmt.Sprintf(`{"id":"ev-1","directive":%s}`, smallSpec))
	rec := waitDone(t, d, "ev-1")

	// Full replay: NDJSON, one event per line, lifecycle marks included.
	code, body := httpJSON(t, "GET", base+"/jobs/ev-1/events", "")
	if code != http.StatusOK {
		t.Fatalf("events = %d: %s", code, body)
	}
	var kinds []string
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d not an event: %v: %s", n, err, sc.Bytes())
		}
		if ev.Seq != n+1 {
			t.Fatalf("line %d has seq %d", n, ev.Seq)
		}
		kinds = append(kinds, ev.Kind)
		n++
	}
	if n != len(rec.Events) {
		t.Fatalf("streamed %d events, record has %d", n, len(rec.Events))
	}
	if kinds[0] != jobs.EventSubmitted || kinds[n-1] != jobs.EventDone {
		t.Fatalf("trail boundaries = %s .. %s", kinds[0], kinds[n-1])
	}

	// ?since resumes after a sequence number; ?follow on a terminal job
	// replays the rest and closes.
	code, body = httpJSON(t, "GET",
		fmt.Sprintf("%s/jobs/ev-1/events?since=%d&follow=1", base, n-1), "")
	if code != http.StatusOK {
		t.Fatalf("events since = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], `"done"`) {
		t.Fatalf("since=%d returned %q", n-1, lines)
	}
}

// A sweep job runs the Monte Carlo matrix end to end: the committed
// result is the deterministic simfarm Summary and the trail carries
// per-cell progress events.
func TestSweepDirectiveOverHTTP(t *testing.T) {
	d := startDaemon(t, t.TempDir())
	base := "http://" + d.addr()

	code, body := httpJSON(t, "POST", base+"/jobs",
		`{"id":"sweep-1","directive":{"kind":"sweep","jobs":2,"seeds":2,"parallelism":4}}`)
	if code != http.StatusCreated {
		t.Fatalf("submit = %d: %s", code, body)
	}
	rec := waitDone(t, d, "sweep-1")

	var sum simfarm.Summary
	if err := json.Unmarshal(rec.Result, &sum); err != nil {
		t.Fatalf("result not a simfarm.Summary: %v: %s", err, rec.Result)
	}
	if sum.Directives != 4 || sum.Plans != 3 || sum.Seeds != 2 {
		t.Fatalf("matrix shape = %d×%d×%d, want 4×3×2", sum.Directives, sum.Plans, sum.Seeds)
	}
	if sum.Runs != 24 || sum.Failures != 0 || len(sum.Rows) != 12 {
		t.Fatalf("runs/failures/rows = %d/%d/%d: %s", sum.Runs, sum.Failures, len(sum.Rows), rec.Result)
	}
	cells, rows := 0, 0
	for _, ev := range rec.Events {
		switch ev.Kind {
		case string(metrics.EventSweepCell):
			cells++
		case string(metrics.EventSweepRow):
			rows++
		}
	}
	if cells != 24 || rows != 12 {
		t.Fatalf("trail carried %d sweep-cell / %d sweep-row events, want 24/12", cells, rows)
	}
}

// A churn job runs the online placement workload end to end: the
// committed result is the deterministic churn Report, the trail carries
// the engine's decision log, and re-submitting the identical directive
// under a new ID commits byte-identical result bytes — the property the
// crash-recovery path relies on.
func TestChurnDirectiveOverHTTP(t *testing.T) {
	d := startDaemon(t, t.TempDir())
	base := "http://" + d.addr()

	directive := `{"kind":"churn","placement":"swap","jobs":16,"seed":7,"faulted":true}`
	code, body := httpJSON(t, "POST", base+"/jobs",
		fmt.Sprintf(`{"id":"churn-1","directive":%s}`, directive))
	if code != http.StatusCreated {
		t.Fatalf("submit = %d: %s", code, body)
	}
	rec := waitDone(t, d, "churn-1")

	var rep churn.Report
	if err := json.Unmarshal(rec.Result, &rep); err != nil {
		t.Fatalf("result not a churn.Report: %v: %s", err, rec.Result)
	}
	if rep.Policy != "destination-swap" || rep.Seed != 7 || rep.Arrived != 16 {
		t.Fatalf("report header = %s/seed%d/%d arrivals, want destination-swap/seed7/16: %s",
			rep.Policy, rep.Seed, rep.Arrived, rec.Result)
	}
	if rep.Departed+rep.Rejected != rep.Arrived {
		t.Fatalf("report leaked jobs: %d departed + %d rejected != %d arrived",
			rep.Departed, rep.Rejected, rep.Arrived)
	}
	logLines := 0
	for _, ev := range rec.Events {
		if ev.Kind == "churn-log" {
			logLines++
		}
	}
	if logLines == 0 {
		t.Fatalf("trail carried no churn-log events on a faulted run: %+v", rec.Events)
	}

	httpJSON(t, "POST", base+"/jobs", fmt.Sprintf(`{"id":"churn-2","directive":%s}`, directive))
	again := waitDone(t, d, "churn-2")
	if !bytes.Equal(rec.Result, again.Result) {
		t.Fatalf("identical churn directives committed different results:\n%s\nvs\n%s",
			rec.Result, again.Result)
	}
}

// The sweep wire form selects the churn matrix and restricts its fault
// axis by plan name.
func TestChurnSweepDirectiveOverHTTP(t *testing.T) {
	d := startDaemon(t, t.TempDir())
	base := "http://" + d.addr()

	code, body := httpJSON(t, "POST", base+"/jobs",
		`{"id":"csweep-1","directive":{"kind":"sweep","matrix":"churn","jobs":8,"seeds":2,"fault_plans":["node-crash"],"parallelism":4}}`)
	if code != http.StatusCreated {
		t.Fatalf("submit = %d: %s", code, body)
	}
	rec := waitDone(t, d, "csweep-1")

	var sum simfarm.Summary
	if err := json.Unmarshal(rec.Result, &sum); err != nil {
		t.Fatalf("result not a simfarm.Summary: %v: %s", err, rec.Result)
	}
	if sum.Directives != 2 || sum.Plans != 1 || sum.Seeds != 2 {
		t.Fatalf("matrix shape = %d×%d×%d, want 2×1×2: %s", sum.Directives, sum.Plans, sum.Seeds, rec.Result)
	}
	if sum.Runs != 4 || sum.Failures != 0 {
		t.Fatalf("runs/failures = %d/%d, want 4/0: %s", sum.Runs, sum.Failures, rec.Result)
	}
	for _, r := range sum.Rows {
		if r.Plan != "node-crash" {
			t.Fatalf("fault_plans filter leaked plan %q into the summary", r.Plan)
		}
	}
}

// A typo'd fault-plan name is refused at the door with the typed simfarm
// error, naming the plans the matrix actually has.
func TestSweepFaultPlanValidation(t *testing.T) {
	bad := `{"kind":"sweep","fault_plans":["dst-crash","bogus"]}`
	_, err := scenario.Decode([]byte(bad))
	var oe *simfarm.OptionsError
	if !errors.As(err, &oe) {
		t.Fatalf("scenario.Decode = %v, want wrapped *simfarm.OptionsError", err)
	}
	d := startDaemon(t, t.TempDir())
	code, resp := httpJSON(t, "POST", "http://"+d.addr()+"/jobs", `{"id":"typo","directive":`+bad+`}`)
	if code != http.StatusBadRequest {
		t.Fatalf("submit = %d, want 400: %s", code, resp)
	}
	for _, want := range []string{"bogus", "dst-crash", "migrate-abort"} {
		if !strings.Contains(string(resp), want) {
			t.Errorf("refusal %s does not mention %q", resp, want)
		}
	}
	if _, err := scenario.Decode([]byte(`{"kind":"sweep","matrix":"churn","fault_plans":["node-crash"]}`)); err != nil {
		t.Fatalf("valid churn-matrix plan selection rejected: %v", err)
	}
}

// Omitted fields take their defaults: the committed result names the
// scenario the directive ran.
func TestDirectiveSpecDefaults(t *testing.T) {
	d := startDaemon(t, t.TempDir())
	base := "http://" + d.addr()
	for i, c := range []struct{ body, wantLabel string }{
		{`{}`, "greedy/sequential"},
		{`{"placement":"swap","batched":true,"cap":4}`, "swap/batched(cap=4)"},
		{`{"kind":"rolling-maintenance"}`, "rolling(cap=2)/greedy"},
		{`{"kind":"rolling-maintenance","placement":"swap","max_in_flight":3}`, "rolling(cap=3)/swap"},
	} {
		id := fmt.Sprintf("defaults-%d", i)
		if code, resp := httpJSON(t, "POST", base+"/jobs", `{"id":"`+id+`","directive":`+c.body+`}`); code != http.StatusCreated {
			t.Fatalf("%s: submit = %d: %s", c.body, code, resp)
		}
		var res scenario.FleetResult
		if err := json.Unmarshal(waitDone(t, d, id).Result, &res); err != nil {
			t.Fatalf("%s: result not a FleetResult: %v", c.body, err)
		}
		if res.Scenario != c.wantLabel {
			t.Errorf("%s → %q, want %q", c.body, res.Scenario, c.wantLabel)
		}
	}
}
