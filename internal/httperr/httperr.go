// Package httperr holds what every serving surface shares at the HTTP
// boundary: the handler skeleton every server is built on (Base: health,
// readiness, draining, metrics and profiles), the preamble of a POST
// endpoint (DecodePost) and the single source of truth for mapping
// query-path errors to HTTP statuses. Every
// serving surface — /api/streets, the batch endpoint, the multi-tenant
// router (which forwards into the same handlers), the per-shard soishard
// endpoint and the remote scatter-gather path — routes its errors
// through Status, so the same failure always wears the same status code:
//
//	overload / shed / shards exhausted  → 503 (+ Retry-After)
//	client went away                    → 499 (accounting only)
//	deadline expired                    → 504
//	recovered panic, internal cancel    → 500
//	bad query                           → 400
//
// The distinction between 499 and 500 for context.Canceled is the
// subtle one this mapper exists to pin down: cancellation is only the
// client's fault when the *request's* context is the one that died.
// An evaluation cancelled for any other reason (an internal component
// gave up) is a server fault and must read as one in the access logs,
// not as a 400 "bad request".
package httperr

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

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
	var pe *engine.PanicError
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
	case errors.As(err, &pe):
		return http.StatusInternalServerError, false
	default:
		return http.StatusBadRequest, false
	}
}

// WriteQueryError writes a query-path error with the status Status maps
// it to, and a Retry-After hint on overload-class statuses: shed load →
// 503, an expired per-query deadline → 504, a client that went away →
// 499 (accounting only; the connection is gone), a recovered panic or an
// internal cancellation → 500, anything else → 400.
func WriteQueryError(w http.ResponseWriter, r *http.Request, err error) {
	status, retry := Status(err, r.Context().Err() != nil)
	if retry {
		w.Header().Set("Retry-After", "1")
	}
	WriteError(w, status, err.Error())
}

// DecodePost is the preamble of every POST endpoint, on soiserve and
// soishard alike: refuse other methods with 405 and an Allow header, cap
// the body at maxBytes (not positive: no cap), decode it as JSON into v,
// and answer an over-long body with 413 and anything else undecodable
// with 400. It reports whether v is ready; when it is not, the uniform
// {"error": …} body has been written and the handler just returns.
func DecodePost(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	if maxBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit))
			return false
		}
		WriteError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return false
	}
	return true
}

// WriteJSON writes v as the JSON body of a response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past the header cannot be reported to the client;
	// the payloads are plain structs that always encode.
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the uniform JSON error payload, {"error": msg}.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{msg})
}
