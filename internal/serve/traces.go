package serve

import (
	"fmt"
	"net/http"

	"zac/internal/telemetry"
)

// TracesResponse is the body of GET /v1/traces: the recorder's retained
// traces, most recent first.
type TracesResponse struct {
	// Enabled reports whether the server runs with a trace recorder; when
	// false the listing is always empty.
	Enabled bool `json:"enabled"`
	// Traces summarizes the retained traces, most recent first.
	Traces []telemetry.TraceSummary `json:"traces"`
}

// handleTraces serves GET /v1/traces: recent trace summaries, or — with
// ?id=<trace> — one trace's full span tree (the same view as
// GET /v1/traces/{id}).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("id"); id != "" {
		s.writeTrace(w, r, id)
		return
	}
	resp := TracesResponse{Enabled: s.telemetry != nil, Traces: s.telemetry.Traces()}
	if resp.Traces == nil {
		resp.Traces = []telemetry.TraceSummary{}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTrace serves GET /v1/traces/{id}: one trace's span tree as JSON, or
// as Chrome trace_event JSON (loadable in Perfetto and chrome://tracing)
// with ?format=chrome.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.writeTrace(w, r, r.PathValue("id"))
}

// writeTrace renders one retained trace in the negotiated format.
func (s *Server) writeTrace(w http.ResponseWriter, r *http.Request, id string) {
	td, ok := s.telemetry.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown trace %q", id))
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		data, err := telemetry.ChromeTrace([]telemetry.TraceData{td})
		if err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding chrome trace: %w", err))
			return
		}
		writeBody(w, http.StatusOK, append(data, '\n'))
		return
	}
	writeJSON(w, http.StatusOK, td)
}
