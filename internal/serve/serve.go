// Package serve streams experiment tables over HTTP. It has one endpoint,
// which the repository benchmark (perfbench's fig3-sampled workload)
// replays to check that tables cross the wire byte-identical to an
// in-process run:
//
//	POST /v1/tables   body: experiments.Request (JSON)
//	                  response: NDJSON stream of frames — {"table": ...}
//	                  per finished table, then {"done": summary} (or
//	                  {"error": ...}). Tables stream as studies complete.
//
// Requests run on the process-wide schedule.Shared() scheduler, so they
// share its memory tier and its on-disk store with everything else in the
// process. A request runs to completion even if the client disconnects
// mid-stream: its results are cached for the next requester.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"

	"repro/internal/experiments"
	"repro/internal/schedule"
)

// maxBodyBytes bounds request bodies: a Request is a few hundred bytes.
const maxBodyBytes = 1 << 20

// Config parameterises a Server.
type Config struct {
	// CacheDir is the on-disk result store root ("" leaves the shared
	// scheduler's store as it is).
	CacheDir string
}

// Server serves /v1/tables on the process-wide scheduler.
type Server struct{}

// New builds a Server and, when a cache dir is configured, opens the store
// on schedule.Shared().
func New(cfg Config) (*Server, error) {
	if cfg.CacheDir != "" {
		if err := schedule.Shared().SetCacheDir(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	return &Server{}, nil
}

// Handler returns the server's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/tables", s.handleTables)
	return mux
}

// StreamSummary is the terminal frame of one /v1/tables stream.
type StreamSummary struct {
	// Request names the experiment that ran ("fig3", "compare", ...).
	Request string `json:"request"`
	// Tables is how many tables the stream carried.
	Tables int `json:"tables"`
}

// Frame is one NDJSON line of a /v1/tables response. Exactly one field is
// set per line: Table for each result, then either Done or Error to
// terminate the stream.
type Frame struct {
	Table *schedule.TableData `json:"table,omitempty"`
	Done  *StreamSummary      `json:"done,omitempty"`
	Error string              `json:"error,omitempty"`
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req experiments.Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		fail(w, http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	if err := req.Validate(); err != nil {
		fail(w, http.StatusBadRequest, err.Error())
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)

	tables := 0
	emit := func(t experiments.Table) {
		tables++
		enc.Encode(Frame{Table: &schedule.TableData{
			Title: t.Title, Note: t.Note, Header: t.Header, Rows: t.Rows,
		}})
		if flusher != nil {
			flusher.Flush()
		}
	}
	// The harness runs to completion even if the client went away (the
	// write side just starts failing): the simulations are cached for the
	// next requester. A panic on this goroutine (a simulator bug) is
	// contained to this request.
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("experiment panicked: %v\n%s", p, debug.Stack())
			}
		}()
		return req.Run(emit)
	}()
	if err != nil {
		enc.Encode(Frame{Error: err.Error()})
		return
	}
	enc.Encode(Frame{Done: &StreamSummary{Request: req.Name(), Tables: tables}})
}

func fail(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
