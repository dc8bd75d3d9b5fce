package server

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// ErrCode is a stable machine-readable error identifier. Clients (and the
// load engine's error classifier) switch on codes, never on message text —
// messages are for humans and may change; codes may not.
type ErrCode string

const (
	// ErrMissingParameter: a required query parameter is absent.
	ErrMissingParameter ErrCode = "missing_parameter"
	// ErrInvalidParameter: a query parameter failed to parse or names an
	// unknown config/method/strategy/scenario.
	ErrInvalidParameter ErrCode = "invalid_parameter"
	// ErrInvalidGrid: a grid spec failed sweep.ParseGrid.
	ErrInvalidGrid ErrCode = "invalid_grid"
	// ErrInvalidSpec: a tuning spec failed tune.ParseSpec or validation.
	ErrInvalidSpec ErrCode = "invalid_spec"
	// ErrInvalidBody: a request body is not well-formed JSON (or too large).
	ErrInvalidBody ErrCode = "invalid_body"
	// ErrTooManyCells / ErrTooManyMicro / ErrTooManyDevices: the serving-layer
	// size guards (Options.MaxCells, tune.MaxMicro, tune.MaxDevices).
	ErrTooManyCells   ErrCode = "too_many_cells"
	ErrTooManyMicro   ErrCode = "too_many_micro"
	ErrTooManyDevices ErrCode = "too_many_devices"
	// ErrUnknownExperiment: /api/v1/experiments/{name} has no such grid.
	ErrUnknownExperiment ErrCode = "unknown_experiment"
	// ErrUnversionedPath: an unversioned /api/... path (404); details.path
	// names the /api/v1 route to use instead.
	ErrUnversionedPath ErrCode = "unversioned_path"
	// ErrJobNotFound: no job with that id.
	ErrJobNotFound ErrCode = "job_not_found"
	// ErrNotCoordinator: POST /api/v1/cluster/join on a server that has no
	// cluster dispatcher (409) — only a coordinator tracks membership.
	ErrNotCoordinator ErrCode = "not_coordinator"
	// ErrQueueFull: the async tuner-job queue is at capacity (429).
	ErrQueueFull ErrCode = "queue_full"
	// ErrShedOverload: admission control shed the request — every in-flight
	// slot busy and the accept queue full (429).
	ErrShedOverload ErrCode = "shed_overload"
	// ErrShuttingDown: the server is draining (503).
	ErrShuttingDown ErrCode = "shutting_down"
	// ErrTraceNotFound: GET /api/v1/debug/traces/{id} names a trace the
	// bounded ring no longer (or never) holds (404).
	ErrTraceNotFound ErrCode = "trace_not_found"
	// ErrTracingDisabled: the debug trace endpoints on a server constructed
	// with tracing off (409).
	ErrTracingDisabled ErrCode = "tracing_disabled"
	// ErrInternal: an unexpected server-side failure (500).
	ErrInternal ErrCode = "internal"
)

// ErrorDetail is the inner object of the uniform error envelope.
type ErrorDetail struct {
	Code    ErrCode        `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

// ErrorEnvelope is the one error body every endpoint returns:
//
//	{"error":{"code":"too_many_cells","message":"...","details":{...}}}
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// writeError emits the uniform error envelope every failing endpoint uses.
// Every 429 carries a Retry-After header — call sites with a real estimate
// set it first; otherwise a floor of 1s is filled in here so the contract
// ("a 429 always tells you when to come back") cannot be forgotten at one
// call site. Encode or write failures (a client gone mid-error, a broken
// proxy) have no response channel left, so they are logged — with the
// request's route and trace ID, so the line correlates with the trace
// export — rather than dropped.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, code ErrCode, details map[string]any, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests && w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	env := ErrorEnvelope{Error: ErrorDetail{Code: code, Message: fmt.Sprintf(format, args...), Details: details}}
	if err := json.NewEncoder(w).Encode(env); err != nil {
		s.logf(r, "writing %d error body: %v", status, err)
	}
}
