package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/scenario"
)

// daemon ties the durable job manager to its HTTP surface.
type daemon struct {
	mgr  *jobs.Manager
	srv  *http.Server
	ln   net.Listener
	logf func(string, ...any)
}

type daemonConfig struct {
	Addr        string
	StateDir    string
	Workers     int
	Lease       time.Duration
	MaxAttempts int
	Backoff     time.Duration
	Logf        func(string, ...any)
}

func newDaemon(cfg daemonConfig) (*daemon, error) {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	mgr, err := jobs.New(jobs.Config{
		Dir:         cfg.StateDir,
		Handler:     runJob,
		Workers:     cfg.Workers,
		Lease:       cfg.Lease,
		MaxAttempts: cfg.MaxAttempts,
		Backoff:     cfg.Backoff,
		Logf:        cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	d := &daemon{mgr: mgr, logf: cfg.Logf}
	d.srv = &http.Server{Handler: d.routes()}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	d.ln = ln
	return d, nil
}

// start recovers persisted jobs and begins serving. It returns once the
// listener is accepting; serve errors after that go to logf.
func (d *daemon) start() error {
	if err := d.mgr.Start(); err != nil {
		d.ln.Close()
		return err
	}
	go func() {
		if err := d.srv.Serve(d.ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			d.logf("ninjad: serve: %v", err)
		}
	}()
	return nil
}

// addr is the bound listen address ("127.0.0.1:41873" under -addr :0).
func (d *daemon) addr() string { return d.ln.Addr().String() }

// shutdown drains gracefully: the HTTP listener closes, then the job
// manager drains to a checkpointable boundary under ctx's deadline.
func (d *daemon) shutdown(ctx context.Context) error {
	httpCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(httpCtx)
	return d.mgr.Stop(ctx)
}

func (d *daemon) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", d.handleHealth)
	mux.HandleFunc("POST /jobs", d.handleSubmit)
	mux.HandleFunc("GET /jobs", d.handleList)
	mux.HandleFunc("GET /jobs/{id}", d.handleGet)
	mux.HandleFunc("POST /jobs/{id}/cancel", d.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", d.handleEvents)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (d *daemon) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":     true,
		"owner":  d.mgr.Owner(),
		"pid":    os.Getpid(),
		"counts": d.mgr.Counts(),
	})
}

// runJob is the jobs.Handler behind ninjad: it decodes the stored
// directive (the record is the source of truth, not whatever was in
// memory before a crash) and runs it with the trail streamed into the
// job's event log. The result is a pure function of the directive, so a
// job re-run after a crash commits the same bytes.
func runJob(ctx context.Context, rec jobs.Record, emit func(jobs.Event)) (json.RawMessage, error) {
	spec, err := scenario.Decode(rec.Directive)
	if err != nil {
		return nil, err
	}
	return scenario.Run(ctx, spec, func(ev metrics.Event) {
		emit(jobs.Event{
			Kind:    string(ev.Kind),
			Phase:   ev.Phase,
			Subject: ev.Subject,
			Detail:  ev.Detail,
			Sim:     ev.At.Seconds(),
		})
	})
}

// submitRequest wraps a directive with its optional client-supplied ID.
type submitRequest struct {
	// ID makes submission idempotent: re-POSTing the same ID+directive
	// after a lost response returns the existing job instead of a
	// duplicate. Empty gets a generated ID.
	ID        string          `json:"id,omitempty"`
	Directive json.RawMessage `json:"directive"`
}

// handleSubmit refuses, before anything is persisted, an envelope with
// unknown fields or trailing data and a directive scenario.Decode
// refuses: a directive that cannot run must be turned away at the door,
// not persisted and failed asynchronously.
func (d *daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var req submitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("request body: %w", err))
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		writeErr(w, http.StatusBadRequest, errors.New("request body: trailing data after the JSON object"))
		return
	}
	if len(req.Directive) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("request body: directive is required"))
		return
	}
	if _, err := scenario.Decode(req.Directive); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rec, created, err := d.mgr.Submit(req.ID, req.Directive)
	var mismatch *jobs.MismatchError
	switch {
	case errors.As(err, &mismatch):
		writeErr(w, http.StatusConflict, err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, rec)
}

func (d *daemon) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs":   d.mgr.List(),
		"counts": d.mgr.Counts(),
	})
}

func (d *daemon) handleGet(w http.ResponseWriter, r *http.Request) {
	rec, err := d.mgr.Get(r.PathValue("id"))
	if errors.Is(err, jobs.ErrNotFound) {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (d *daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	rec, err := d.mgr.Cancel(r.PathValue("id"))
	if errors.Is(err, jobs.ErrNotFound) {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleEvents streams the job's event trail as NDJSON. ?since=N resumes
// after sequence number N; ?follow=1 keeps the stream open, tailing live
// events until the job reaches a terminal state.
func (d *daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	since := 0
	if s := r.URL.Query().Get("since"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad since=%q", s))
			return
		}
		since = n
	}
	follow := r.URL.Query().Get("follow") != ""

	replay, tail, off, err := d.mgr.Watch(id, since)
	if errors.Is(err, jobs.ErrNotFound) {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	defer off()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for _, ev := range replay {
		_ = enc.Encode(ev)
	}
	if flusher != nil {
		flusher.Flush()
	}
	if !follow || tail == nil {
		return
	}
	for {
		select {
		case ev, ok := <-tail:
			if !ok {
				return // terminal: trail complete
			}
			_ = enc.Encode(ev)
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}
