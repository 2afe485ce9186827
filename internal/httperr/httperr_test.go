package httperr

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// TestWriteJSONRefusesUnencodable: a value that does not encode is a 500
// with the uniform error body, not an empty body under the asked status.
func TestWriteJSONRefusesUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, struct{ Interest float64 }{math.Inf(1)})
	var body struct{ Error string }
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &body) != nil || body.Error == "" {
		t.Fatalf("status %d body %q, want 500 with an error body", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	WriteJSON(rec, http.StatusCreated, struct{ N int }{7})
	if rec.Code != http.StatusCreated || rec.Body.String() != "{\"N\":7}\n" {
		t.Fatalf("status %d body %q", rec.Code, rec.Body.String())
	}
}

// statusErr is a minimal Statuser carrier, standing in for error types
// like the remote coordinator's shards-unavailable error.
type statusErr struct{ code int }

func (e *statusErr) Error() string   { return fmt.Sprintf("status %d", e.code) }
func (e *statusErr) HTTPStatus() int { return e.code }

// TestStatusMapping pins the full error→status table. Every serving
// surface routes through this mapper, so a change here is a change to
// the public API of every endpoint at once — the table below is the
// contract.
func TestStatusMapping(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		clientGone bool
		status     int
		retryAfter bool
	}{
		{"overload", engine.ErrOverloaded, false, http.StatusServiceUnavailable, true},
		{"wrapped overload", fmt.Errorf("queue: %w", engine.ErrOverloaded), false, http.StatusServiceUnavailable, true},
		{"client gone", context.Canceled, true, StatusClientClosedRequest, false},
		{"internal cancel", context.Canceled, false, http.StatusInternalServerError, false},
		{"deadline", context.DeadlineExceeded, false, http.StatusGatewayTimeout, false},
		{"deadline with client gone", context.DeadlineExceeded, true, http.StatusGatewayTimeout, false},
		{"panic", &engine.PanicError{Value: "boom"}, false, http.StatusInternalServerError, false},
		{"wrapped panic", fmt.Errorf("worker: %w", &engine.PanicError{Value: "boom"}), false, http.StatusInternalServerError, false},
		{"bad query", errors.New("k must be positive"), false, http.StatusInternalServerError, false},
		{"refused request", core.BadRequest(errors.New("k must be positive")), false, http.StatusBadRequest, false},
		{"wrapped refused request", fmt.Errorf("batch: %w", core.BadRequest(errors.New("k must be positive"))), false, http.StatusBadRequest, false},
		{"bad epsilon", fmt.Errorf("%w: NaN", core.ErrBadEpsilon), false, http.StatusBadRequest, false},
		{"statuser 503 retries", &statusErr{http.StatusServiceUnavailable}, false, http.StatusServiceUnavailable, true},
		{"statuser 400 no retry", &statusErr{http.StatusBadRequest}, false, http.StatusBadRequest, false},
		{"statuser 504 no retry", &statusErr{http.StatusGatewayTimeout}, false, http.StatusGatewayTimeout, false},
		{"wrapped statuser", fmt.Errorf("gather: %w", &statusErr{http.StatusServiceUnavailable}), false, http.StatusServiceUnavailable, true},
	}
	for _, tc := range cases {
		status, retry := Status(tc.err, tc.clientGone)
		if status != tc.status || retry != tc.retryAfter {
			t.Errorf("%s: Status(%v, clientGone=%v) = (%d, %v), want (%d, %v)",
				tc.name, tc.err, tc.clientGone, status, retry, tc.status, tc.retryAfter)
		}
	}
}

// TestStatuserPrecedence: a carried status wins over the generic rules —
// an error that both wraps context.Canceled and carries a status must
// answer with the carried status, because the carrier knows better.
func TestStatuserPrecedence(t *testing.T) {
	err := &cancelStatuser{}
	if status, _ := Status(err, false); status != http.StatusServiceUnavailable {
		t.Errorf("Statuser carrying 503 over Canceled mapped to %d, want 503", status)
	}
}

type cancelStatuser struct{}

func (e *cancelStatuser) Error() string   { return "unavailable: " + context.Canceled.Error() }
func (e *cancelStatuser) Unwrap() error   { return context.Canceled }
func (e *cancelStatuser) HTTPStatus() int { return http.StatusServiceUnavailable }
