package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon workload: ninjad runs as a subprocess over a state directory
// pre-seeded with completed records. A closed loop of one client submits
// directives from a seeded pool — churn runs of 32 jobs and 2-job
// evacuations, one to three — and follows each job's event stream until
// it is done; every listEvery-th job also lists the store with GET /jobs,
// and every refuseEvery-th submission is a directive ninjad refuses (kind
// "consolidate", HTTP 400), so failed_frac measures the refusal path. Each round restarts ninjad on a fresh copy
// of the seeded store, so every round does identical work.

type daemonSize struct {
	churnRuns, seedJobs, roundJobs, listEvery, refuseEvery, restarts int
}

func daemonSizes(cfg config) daemonSize {
	if cfg.small {
		return daemonSize{churnRuns: 6, seedJobs: 30, roundJobs: 40, listEvery: 10, refuseEvery: 10, restarts: 1}
	}
	return daemonSize{churnRuns: 96, seedJobs: 600, roundJobs: 130, listEvery: 100, refuseEvery: 50, restarts: 2}
}

// seedClients load the store before measuring; the measured loop runs
// one client, so no timed work runs on both cores at once and a slower
// host stretches latency in proportion instead of through a saturated
// queue.
const seedClients = 2

// poolEntry is one distinct directive of the seeded pool.
type poolEntry struct {
	kind string // "churn" or "evacuate"
	body json.RawMessage
}

// daemonPool is the directive pool: churn runs of 32 jobs — greedy and
// swap alternating, every sixth through the node crash — whose arrival
// seeds are drawn from the seed, each followed by three 2-job evacuations
// cycling through 8 fixed variants (greedy or swap, live or rdma, batch
// cap 1 or 2). The mix is the same for every seed, so the seed moves only
// the churn arrivals. Evacuations are the majority so that a typical job
// is mostly simulation work: a churn job spends most of its few
// milliseconds waking threads and waiting on fsync, and on a shared host
// those waits swung its latency by 2× between rounds a few seconds apart.
func daemonPool(seed int64, churnRuns int) []poolEntry {
	rng := rand.New(rand.NewSource(seed))
	placements := []string{"greedy", "swap"}
	var pool []poolEntry
	for i := 0; i < churnRuns; i++ {
		body := fmt.Sprintf(`{"kind":"churn","jobs":32,"seed":%d,"placement":%q,"faulted":%v}`,
			rng.Int63n(1<<31), placements[i%2], i%6 == 5)
		pool = append(pool, poolEntry{kind: "churn", body: json.RawMessage(body)})
		for r := 0; r < 3; r++ {
			e := (3*i + r) % 8
			body = fmt.Sprintf(`{"kind":"evacuate","jobs":2,"placement":%q,"batched":true,"cap":%d,"mode":%q}`,
				placements[e%2], 1+e/4, []string{"live", "rdma"}[e/2%2])
			pool = append(pool, poolEntry{kind: "evacuate", body: json.RawMessage(body)})
		}
	}
	return pool
}

const refusedDirective = `{"kind":"consolidate"}`

// jobRecord is the part of a ninjad job record the client reads.
type jobRecord struct {
	State  string          `json:"state"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
	Events []struct {
		Kind string    `json:"kind"`
		Wall time.Time `json:"wall"`
	} `json:"events"`
}

// ninjad is one running daemon process.
type ninjad struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// startNinjad starts the daemon over dir and returns once GET /healthz
// answers 200, with the time that took.
func startNinjad(bin, dir string, hc *http.Client) (*ninjad, time.Duration, error) {
	addrFile := filepath.Join(dir, "..", filepath.Base(dir)+".addr")
	_ = os.Remove(addrFile)
	t := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-state-dir", dir, "-addr-file", addrFile)
	// A benchmark killed mid-run must not leave the daemon behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start ninjad: %w", err)
	}
	n := &ninjad{cmd: cmd, done: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(n.done) }()
	for {
		select {
		case <-n.done:
			return nil, 0, fmt.Errorf("ninjad exited during start-up: %v", cmd.ProcessState)
		default:
		}
		if time.Since(t) > 60*time.Second {
			n.stop()
			return nil, 0, errors.New("ninjad did not become healthy within 60 s")
		}
		if n.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				n.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if n.base != "" {
			if resp, err := hc.Get(n.base + "/healthz"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return n, time.Since(t), nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM (SIGKILL after 30 s), waits for it
// to exit and returns its peak RSS in MB.
func (n *ninjad) stop() float64 {
	_ = n.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-n.done:
	case <-time.After(30 * time.Second):
		_ = n.cmd.Process.Kill()
		<-n.done
	}
	if ru, ok := n.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return math.NaN()
}

// call is one timed HTTP exchange.
func call(hc *http.Client, method, url string, body []byte) (status int, data []byte, d time.Duration, err error) {
	t := time.Now()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(t), err
}

// round is what one closed-loop round measured.
type round struct {
	elapsed            time.Duration
	jobMS              map[int]float64 // job index → submit-to-done ms, accepted jobs
	submitMS, getMS    []float64
	listMS             []float64
	bytes, calls       int
	queueWaitMS, runMS []float64
	submits, refused   int
	failedJobs, non2xx int
	errs               []string
	results            map[string]json.RawMessage // directive → first result seen
}

func newRound() *round {
	return &round{jobMS: map[int]float64{}, results: map[string]json.RawMessage{}}
}

// loop drives n jobs through the daemon from the given number of clients.
// Job i uses pool[i%len(pool)]; ids are prefix-i.
func (r *round) loop(tr *tracer, runID, clients int, hc *http.Client, base, prefix string, pool []poolEntry, n int, sz daemonSize) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	t := time.Now()
	for c := 1; c <= clients; c++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i > n {
					return
				}
				r.job(tr, runID, tid, &mu, hc, base, prefix, pool, i, sz)
			}
		}(c)
	}
	wg.Wait()
	r.elapsed += time.Since(t)
}

// job runs job i of a round on client tid.
func (r *round) job(tr *tracer, runID, tid int, mu *sync.Mutex, hc *http.Client, base, prefix string, pool []poolEntry, i int, sz daemonSize) {
	sp := tr.begin("ninjad.job", 0, runID, tid)
	defer tr.end(sp)
	timed := func(name, method, url string, body []byte) (int, []byte, time.Duration, error) {
		s := tr.begin(name, sp, runID, tid)
		st, data, d, err := call(hc, method, url, body)
		tr.end(s)
		mu.Lock()
		r.calls++
		r.bytes += len(data)
		if err == nil && (st < 200 || st > 299) && !(name == "ninjad.submit" && st == http.StatusBadRequest) {
			r.non2xx++
		}
		mu.Unlock()
		return st, data, d, err
	}
	fail := func(format string, args ...any) {
		mu.Lock()
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	if sz.listEvery > 0 && i%sz.listEvery == 0 {
		st, _, d, err := timed("ninjad.list", http.MethodGet, base+"/jobs", nil)
		if err != nil || st != http.StatusOK {
			fail("GET /jobs: status %d err %v", st, err)
		}
		mu.Lock()
		r.listMS = append(r.listMS, ms(d))
		mu.Unlock()
	}

	if sz.refuseEvery > 0 && i%sz.refuseEvery == 0 {
		body := fmt.Sprintf(`{"id":"%s-%06d","directive":%s}`, prefix, i, refusedDirective)
		st, _, d, err := timed("ninjad.submit", http.MethodPost, base+"/jobs", []byte(body))
		mu.Lock()
		r.submits++
		r.refused++
		r.submitMS = append(r.submitMS, ms(d))
		mu.Unlock()
		if err != nil || st != http.StatusBadRequest {
			fail("refused directive: status %d err %v, want 400", st, err)
		}
		return
	}

	k := i % len(pool)
	id := fmt.Sprintf("%s-%06d", prefix, i)
	body := fmt.Sprintf(`{"id":%q,"directive":%s}`, id, pool[k].body)
	t0 := time.Now()
	st, _, d, err := timed("ninjad.submit", http.MethodPost, base+"/jobs", []byte(body))
	mu.Lock()
	r.submits++
	r.submitMS = append(r.submitMS, ms(d))
	mu.Unlock()
	if err != nil || st != http.StatusCreated {
		fail("submit %s: status %d err %v", id, st, err)
		return
	}
	// The follow stream ends when the job reaches a terminal state, so
	// the client sees `done` as soon as the daemon commits it, with no
	// polling interval added and no status calls loading the daemon.
	st, _, _, err = timed("ninjad.events", http.MethodGet, base+"/jobs/"+id+"/events?follow=1", nil)
	lat := ms(time.Since(t0))
	if err != nil || st != http.StatusOK {
		fail("follow %s: status %d err %v", id, st, err)
		return
	}
	st, data, d, err := timed("ninjad.get", http.MethodGet, base+"/jobs/"+id, nil)
	mu.Lock()
	r.getMS = append(r.getMS, ms(d))
	mu.Unlock()
	if err != nil || st != http.StatusOK {
		fail("get %s: status %d err %v", id, st, err)
		return
	}
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		fail("get %s: %v", id, err)
		return
	}
	var submitted, picked, running, done time.Time
	for _, ev := range rec.Events {
		switch ev.Kind {
		case "submitted":
			submitted = ev.Wall
		case "picked":
			picked = ev.Wall
		case "running":
			running = ev.Wall
		case "done":
			done = ev.Wall
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if rec.State != "done" {
		r.failedJobs++
		r.errs = append(r.errs, fmt.Sprintf("job %s ended %s: %s", id, rec.State, rec.Error))
		return
	}
	r.jobMS[i] = lat
	if !picked.IsZero() && !submitted.IsZero() {
		r.queueWaitMS = append(r.queueWaitMS, ms(picked.Sub(submitted)))
	}
	if !done.IsZero() && !running.IsZero() {
		r.runMS = append(r.runMS, ms(done.Sub(running)))
	}
	if first, ok := r.results[string(pool[k].body)]; !ok {
		r.results[string(pool[k].body)] = rec.Result
	} else if !bytes.Equal(first, rec.Result) {
		r.errs = append(r.errs, fmt.Sprintf("job %s: result differs from the first run of the same directive", id))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// copyDir copies the flat state directory src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	// Flush the copy (and the previous round's removal) to disk now,
	// outside the timing: otherwise the daemon's first fsyncs would pay
	// for writing back hundreds of files the benchmark just created.
	syscall.Sync()
	return nil
}

// poolSims derives the end-to-end simulated metrics from the committed
// results of the pool's distinct directives: downtime, makespan and
// sequencer error from the evacuations (the same for every seed) and the
// affinity cost from the churn runs.
func poolSims(pool []poolEntry, results map[string]json.RawMessage) (map[string]float64, error) {
	out := map[string]float64{}
	var absErr float64
	evacs := 0
	seen := map[string]bool{}
	for _, e := range pool {
		if seen[string(e.body)] {
			continue
		}
		seen[string(e.body)] = true
		raw, ok := results[string(e.body)]
		if !ok {
			return nil, fmt.Errorf("pool directive %s never completed", e.body)
		}
		if e.kind == "evacuate" {
			var res struct {
				PredictedS float64 `json:"predicted_s"`
				MakespanS  float64 `json:"makespan_s"`
				DowntimeS  float64 `json:"downtime_s"`
			}
			if err := json.Unmarshal(raw, &res); err != nil {
				return nil, err
			}
			out["sim_downtime_s"] += res.DowntimeS
			out["sim_makespan_s"] += res.MakespanS
			absErr += math.Abs(res.PredictedS - res.MakespanS)
			evacs++
			continue
		}
		var res struct {
			Cost float64 `json:"cost_integral"`
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			return nil, err
		}
		out["sim_cost"] += res.Cost
	}
	out["model_err_s"] = absErr / float64(evacs)
	return out, nil
}

func runDaemon(cfg config) (*outcome, error) {
	sz := daemonSizes(cfg)
	pool := daemonPool(cfg.seed, sz.churnRuns)
	if _, err := os.Stat(cfg.ninjad); err != nil {
		return nil, fmt.Errorf("ninjad binary: %w", err)
	}
	work, err := os.MkdirTemp(cfg.work, "daemon-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	hc := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: seedClients, MaxConnsPerHost: seedClients},
	}
	defer hc.CloseIdleConnections()

	// Seed the store through the daemon itself (untimed), so the records
	// are whatever this version of ninjad writes.
	seedDir := filepath.Join(work, "seed")
	if err := os.MkdirAll(seedDir, 0o755); err != nil {
		return nil, err
	}
	d, _, err := startNinjad(cfg.ninjad, seedDir, hc)
	if err != nil {
		return nil, err
	}
	seed := newRound()
	seed.loop(nil, 0, seedClients, hc, d.base, "seed", pool, sz.seedJobs, daemonSize{})
	d.stop()
	if len(seed.errs) > 0 {
		return nil, fmt.Errorf("seeding the store: %s", seed.errs[0])
	}
	sims, err := poolSims(pool, seed.results)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	out := &outcome{e2e: map[string]float64{}}
	var setups, loops, jps, rss, tracedLoops, plainLoops []float64
	jobMS := map[int][]float64{} // job index → its latency in each round
	var all round
	var tracedLayers []map[string]float64
	start := time.Now()
	// At least four rounds, so each job's latency is a median over at
	// least four runs of it.
	for i := 1; i <= 4 || time.Since(start) < cfg.budget; i++ {
		var rtr *tracer
		if tr != nil && i%2 == 1 {
			rtr = tr
		}
		dir := filepath.Join(work, fmt.Sprintf("round%03d", i))
		// Extra restarts measure set-up only.
		for j := 0; j < sz.restarts; j++ {
			if err := copyDir(seedDir, dir); err != nil {
				return nil, err
			}
			d, up, err := startNinjad(cfg.ninjad, dir, hc)
			if err != nil {
				return nil, err
			}
			setups = append(setups, up.Seconds())
			d.stop()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		if err := copyDir(seedDir, dir); err != nil {
			return nil, err
		}
		runtime.GC()
		sp := rtr.begin("ninjad.start", 0, i, 0)
		d, up, err := startNinjad(cfg.ninjad, dir, hc)
		rtr.end(sp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, up.Seconds())
		r := newRound()
		for k, v := range seed.results {
			r.results[k] = v
		}
		r.loop(rtr, i, 1, hc, d.base, fmt.Sprintf("r%03d", i), pool, sz.roundJobs, sz)
		rss = append(rss, d.stop())
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		loops = append(loops, r.elapsed.Seconds())
		jps = append(jps, float64(len(r.jobMS))/r.elapsed.Seconds())
		out.attempted += r.submits
		out.errs = append(out.errs, r.errs...)
		if r.non2xx > 0 {
			out.errs = append(out.errs, fmt.Sprintf("round %d: %d unexpected non-2xx responses", i, r.non2xx))
		}
		for k, v := range r.jobMS {
			jobMS[k] = append(jobMS[k], v)
		}
		all.submits += r.submits
		all.refused += r.refused
		all.failedJobs += r.failedJobs
		all.non2xx += r.non2xx
		if rtr == nil {
			plainLoops = append(plainLoops, r.elapsed.Seconds())
			continue
		}
		tracedLoops = append(tracedLoops, r.elapsed.Seconds())
		// The go.* layer stays 0: the daemon's Go runtime lives in the
		// ninjad process, which the benchmark cannot read from outside.
		lv := newPass(i, rtr).layer
		lv["ninjad.submit_p50_ms"] = percentile(r.submitMS, 50)
		lv["ninjad.submit_p99_ms"] = percentile(r.submitMS, 99)
		lv["ninjad.get_p50_ms"] = percentile(r.getMS, 50)
		lv["ninjad.get_p99_ms"] = percentile(r.getMS, 99)
		lv["ninjad.list_ms"] = median(r.listMS)
		lv["ninjad.resp_kb"] = float64(r.bytes) / float64(max(r.calls, 1)) / 1024
		lv["jobs.queue_wait_p50_ms"] = percentile(r.queueWaitMS, 50)
		lv["jobs.queue_wait_p99_ms"] = percentile(r.queueWaitMS, 99)
		lv["jobs.run_p50_ms"] = percentile(r.runMS, 50)
		lv["jobs.run_p99_ms"] = percentile(r.runMS, 99)
		tracedLayers = append(tracedLayers, lv)
	}
	if cfg.trace {
		out.layer, out.exact = layerMedians(tracedLayers)
		out.spans = tr.snapshot()
		setTraceLayer(out, tracedLoops, plainLoops)
		return out, nil
	}
	runS := median(loops)
	out.e2e["setup_s"] = median(setups)
	out.e2e["run_s"] = runS
	out.e2e["peak_rss_mb"] = median(rss)
	out.e2e["failed_frac"] = fraction(all.refused+all.failedJobs+all.non2xx, all.submits)
	out.e2e["jobs_per_s"] = median(jps)
	// Every round runs the same directives in the same order, so job i
	// is the same work in each round. Its latency is its median over the
	// rounds, and the percentiles are taken over those medians, as the
	// in-process workloads do over their operations: a burst of host
	// slowness that hits one round then moves no percentile.
	var jobMedians []float64
	for _, v := range jobMS {
		jobMedians = append(jobMedians, median(v))
	}
	out.e2e["job_p50_ms"] = percentile(jobMedians, 50)
	out.e2e["job_p99_ms"] = percentile(jobMedians, 99)
	for k, v := range sims {
		out.e2e[k] = v
	}
	return out, nil
}
