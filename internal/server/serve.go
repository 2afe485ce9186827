package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	soi "repro"
	"repro/internal/core"
	"repro/internal/httperr"
)

// endpoint is one route of the handler skeleton.
type endpoint[Req, Resp any] struct {
	method string
	// params reads a GET's query string, defaults of omitted parameters
	// included; without it the route reads a POST's JSON body, capped at
	// *maxBody bytes (not positive: no cap) as it is when the request
	// arrives.
	params  func(url.Values) (Req, error)
	maxBody *int64
	// call checks the route's wire limits, fills a body's omitted k or ε
	// and asks the engine.
	call func(*http.Request, Req) (Resp, error)
	// write, when set, sends call's answer in place of httperr.WriteJSON.
	write func(http.ResponseWriter, Resp)
}

// serve is the one handler skeleton (see the package comment): method,
// request, call, answer. Every error, reading the request included, goes
// through writeQueryError.
func (e endpoint[Req, Resp]) serve(w http.ResponseWriter, r *http.Request) {
	if !httperr.Allowed(w, r, e.method) {
		return
	}
	var (
		req Req
		err error
	)
	if e.params != nil {
		req, err = e.params(r.URL.Query())
	} else {
		// Only a body's request lives on the heap: the decoder holds it.
		body := new(Req)
		err = httperr.DecodeBody(w, r, *e.maxBody, body)
		req = *body
	}
	var resp Resp
	if err == nil {
		resp, err = e.call(r, req)
	}
	switch {
	case err != nil:
		writeQueryError(w, r, err)
	case e.write != nil:
		e.write(w, resp)
	default:
		httperr.WriteJSON(w, http.StatusOK, resp)
	}
}

// writeQueryError answers a query that has nothing to answer
// (soi.ErrNoMatch: no street, no photos) with 404, and any other error
// with the status httperr maps it to.
func writeQueryError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, soi.ErrNoMatch) {
		httperr.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	httperr.WriteQueryError(w, r, err)
}

// params reads a GET request's query string, keeping the first parameter
// that does not parse as a refused request in err.
type params struct {
	url.Values
	err error
}

func (p *params) int(name string, def int) int {
	raw := p.Get(name)
	if raw == "" {
		return def
	}
	v, err := strconv.Atoi(raw)
	p.fail(name, err)
	return v
}

func (p *params) float(name string, def float64) float64 {
	raw := p.Get(name)
	if raw == "" {
		return def
	}
	v, err := strconv.ParseFloat(raw, 64)
	p.fail(name, err)
	return v
}

func (p *params) fail(name string, err error) {
	if err != nil && p.err == nil {
		p.err = core.BadRequest(fmt.Errorf("parameter %q: %w", name, err))
	}
}

// flag reports whether an opt-in flag (trace, partial) is set.
func (p *params) flag(name string) bool {
	switch p.Get(name) {
	case "", "0", "false":
		return false
	}
	return true
}

// query reads the k-SOI parameters every GET query endpoint shares:
// keywords (comma-separated), k (default defK) and eps (default the cell
// size).
func (p *params) query(defK int) soi.Query {
	var kws []string
	if raw := p.Get("keywords"); raw != "" {
		kws = strings.Split(raw, ",")
		out := kws[:0]
		for _, kw := range kws {
			if kw = strings.TrimSpace(kw); kw != "" {
				out = append(out, kw)
			}
		}
		kws = out
	}
	return soi.Query{Keywords: kws, K: p.int("k", defK), Epsilon: p.float("eps", soi.DefaultCellSize)}
}

// kEpsDefaults fills a body's omitted (zero) k with the endpoint's default
// and an omitted ε with the /api/streets default.
func kEpsDefaults(k, defK int, eps float64) (int, float64) {
	if k == 0 {
		k = defK
	}
	if eps == 0 {
		eps = soi.DefaultCellSize
	}
	return k, eps
}
