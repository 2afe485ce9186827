// Package httperr holds what every serving surface shares at the HTTP
// boundary: the base every server is built on (Base: health, readiness,
// draining, metrics and profiles), the reading of a request's method and
// JSON body (Allowed, DecodeBody) and the single source of truth for
// mapping query-path errors to HTTP statuses. Every serving surface —
// the server's routes, the multi-tenant router (which forwards into the
// same handlers), the per-shard soishard endpoint and the remote
// scatter-gather path — routes its errors through Status, so the same
// failure always wears the same status code:
//
//	overload / shed / shards exhausted      → 503 (+ Retry-After)
//	client went away                        → 499 (accounting only)
//	deadline expired                        → 504
//	refused request (core.ErrBadRequest)    → 400
//	panic, internal cancel, anything else   → 500
//
// A request is the client's fault only when the code that refused it
// marked the refusal so; an error nobody typed is a server fault and must
// read as one in the access logs. Likewise cancellation is the client's
// fault only when the *request's* context is the one that died.
package httperr

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/engine"
)

// StatusClientClosedRequest is the nginx-convention 499 status recorded
// when the client cancelled the request before the answer was ready. No
// client sees it (the connection is gone); it keeps access accounting
// honest.
const StatusClientClosedRequest = 499

// Statuser lets error types outside this package's import reach carry
// their own status (e.g. the remote coordinator's shards-unavailable
// error maps itself to 503). It is consulted before the generic rules.
type Statuser interface {
	HTTPStatus() int
}

// Status maps a query-path error to its HTTP status. clientGone reports
// whether the *request's* context was cancelled (r.Context().Err() !=
// nil), which decides between 499 (client went away) and 500 (internal
// cancellation). The second return value reports whether the response
// should carry a Retry-After hint (overload-class statuses).
func Status(err error, clientGone bool) (status int, retryAfter bool) {
	var st Statuser
	switch {
	case errors.As(err, &st):
		s := st.HTTPStatus()
		return s, s == http.StatusServiceUnavailable
	case errors.Is(err, engine.ErrOverloaded):
		return http.StatusServiceUnavailable, true
	case errors.Is(err, context.Canceled):
		if clientGone {
			return StatusClientClosedRequest, false
		}
		// Cancelled but not by the client: an internal component gave
		// up. That is a server fault, not a malformed query.
		return http.StatusInternalServerError, false
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, false
	case errors.Is(err, core.ErrBadRequest):
		return http.StatusBadRequest, false
	default:
		return http.StatusInternalServerError, false
	}
}

// WriteQueryError writes a query-path error with the status Status maps
// it to, and a Retry-After hint on overload-class statuses: shed load →
// 503, an expired per-query deadline → 504, a client that went away →
// 499 (accounting only; the connection is gone), a refused request → 400,
// and a recovered panic, an internal cancellation or any error nobody
// typed → 500.
func WriteQueryError(w http.ResponseWriter, r *http.Request, err error) {
	status, retry := Status(err, r.Context().Err() != nil)
	if retry {
		w.Header().Set("Retry-After", "1")
	}
	WriteError(w, status, err.Error())
}

// Allowed reports whether r uses method. When it does not, Allowed has
// answered 405 with the Allow header RFC 9110 requires, naming method.
func Allowed(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	WriteError(w, http.StatusMethodNotAllowed, method+" only")
	return false
}

// DecodeBody decodes r's JSON body into v, reading at most maxBytes of it
// (not positive: no cap). An over-long body is refused with an error that
// carries 413, anything else undecodable with one that matches
// core.ErrBadRequest.
func DecodeBody(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) error {
	if maxBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	}
	err := json.NewDecoder(r.Body).Decode(v)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return WithStatus(http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the %d-byte limit", tooLarge.Limit))
	}
	if err != nil {
		return core.BadRequest(fmt.Errorf("decoding request: %w", err))
	}
	return nil
}

// WithStatus makes err carry status (a Statuser), for an answer that is
// neither a refused request nor a fault of the server.
func WithStatus(status int, err error) error { return statusError{status, err} }

type statusError struct {
	status int
	error
}

func (e statusError) HTTPStatus() int { return e.status }

func (e statusError) Unwrap() error { return e.error }

// WriteJSON writes v as the JSON body of a response with the given
// status. v is encoded before the header is written, so a value that does
// not encode — a NaN or infinite float — answers 500 with the uniform
// error body, never an empty body under status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		status = http.StatusInternalServerError
		buf.Reset()
		_ = json.NewEncoder(&buf).Encode(errorBody{"encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // past the header nothing can be reported
}

// errorBody is the uniform JSON error payload.
type errorBody struct {
	Error string `json:"error"`
}

// WriteError writes the uniform JSON error payload, {"error": msg}.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, errorBody{msg})
}
