package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/jobs"
	"repro/internal/scenario"
)

// FuzzSubmit feeds arbitrary POST /jobs bodies to handleSubmit on a
// daemon over a temporary state directory whose workers are never
// started, so accepted jobs are persisted but not run. Properties: the
// handler never panics and never answers 5xx; it answers 200/201 only
// when the id is empty or jobs.ValidID and scenario.Decode accepts the
// directive; and a refused body persists no record, in memory or on
// disk. The seed corpus is every body the server tests, the ninjad smoke
// script and the benchmark's daemon workload send.
func FuzzSubmit(f *testing.F) {
	for _, directive := range []string{
		smallSpec,
		`{"kind":"evacuate","jobs":2,"vms_per_job":1}`,
		`{"kind":"sweep","jobs":2,"seeds":2,"parallelism":4}`,
		`{"kind":"churn","placement":"swap","jobs":16,"seed":7,"faulted":true}`,
		`{"kind":"sweep","matrix":"churn","jobs":8,"seeds":2,"fault_plans":["node-crash"],"parallelism":4}`,
		`{"kind":"churn","jobs":32,"seed":1298498081,"placement":"greedy","faulted":false}`,
		`{"kind":"churn","jobs":32,"seed":2019727887,"placement":"swap","faulted":true}`,
		`{"kind":"evacuate","jobs":2,"placement":"greedy","batched":true,"cap":1,"mode":"live"}`,
		`{"kind":"evacuate","jobs":2,"placement":"swap","batched":true,"cap":2,"mode":"rdma"}`,
		`{"kind":"consolidate"}`,
		`null`,
	} {
		f.Add([]byte(fmt.Sprintf(`{"id":"seed-1","directive":%s}`, directive)))
		f.Add([]byte(fmt.Sprintf(`{"directive":%s}`, directive)))
	}
	for _, body := range []string{
		`{nope`,
		`{"id":"x"}`,
		`{"id":"x","directive":{},"extra":1}`,
		`{"id":"x","directive":{}} {}`,
		`{"id":"../x","directive":{}}`,
		`{"ID":"Case","Directive":{"KIND":"churn"}}`,
	} {
		f.Add([]byte(body))
	}
	dir := f.TempDir()
	mgr, err := jobs.New(jobs.Config{Dir: dir, Handler: runJob, Logf: func(string, ...any) {}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(mgr.Abandon)
	d := &daemon{mgr: mgr, logf: func(string, ...any) {}}

	f.Fuzz(func(t *testing.T, body []byte) {
		before := len(mgr.List())
		files := countFiles(t, dir)
		rr := httptest.NewRecorder()
		d.handleSubmit(rr, httptest.NewRequest("POST", "/jobs", bytes.NewReader(body)))
		if rr.Code >= 500 {
			t.Fatalf("%q: status %d: %s", body, rr.Code, rr.Body)
		}
		if rr.Code == http.StatusOK || rr.Code == http.StatusCreated {
			var req struct {
				ID        string          `json:"id"`
				Directive json.RawMessage `json:"directive"`
			}
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("%q accepted (%d), but json.Unmarshal refuses it: %v", body, rr.Code, err)
			}
			if req.ID != "" && !jobs.ValidID(req.ID) {
				t.Fatalf("%q accepted (%d) with invalid id %q", body, rr.Code, req.ID)
			}
			if _, err := scenario.Decode(req.Directive); err != nil {
				t.Fatalf("%q accepted (%d), but scenario.Decode refuses its directive: %v", body, rr.Code, err)
			}
			return
		}
		if after := len(mgr.List()); after != before {
			t.Fatalf("%q refused (%d) but the job count went %d → %d", body, rr.Code, before, after)
		}
		if after := countFiles(t, dir); after != files {
			t.Fatalf("%q refused (%d) but the state directory went %d → %d files", body, rr.Code, files, after)
		}
	})
}

func countFiles(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}
