package server

// The one home of the HTTP plumbing shared by the legacy flat routes and
// the /api/v1 tree: the JSON error envelope, status mapping for typed API
// errors, response encoding, request decoding, and list pagination. Both
// route families funnel through these helpers, so the two surfaces cannot
// drift apart in how they report failures or slice pages.

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"cexplorer/internal/api"
)

// StatusClientClosedRequest is the (de facto, nginx-originated) status for
// a request whose client went away before the response: our mapping for
// api.ErrCanceled.
const StatusClientClosedRequest = 499

// errStatus maps a typed API error to its HTTP status.
func errStatus(err error) int {
	switch {
	case errors.Is(err, api.ErrDatasetNotFound),
		errors.Is(err, api.ErrVertexNotFound),
		errors.Is(err, api.ErrSessionNotFound):
		return http.StatusNotFound
	case errors.Is(err, api.ErrUnknownAlgorithm),
		errors.Is(err, api.ErrInvalidQuery),
		errors.Is(err, api.ErrInvalidMutation):
		return http.StatusBadRequest
	case errors.Is(err, api.ErrMutationConflict):
		return http.StatusConflict
	case errors.Is(err, api.ErrOverloaded):
		// Admission control shed the request: the dataset is at its
		// in-flight computation bound. Retryable — unlike 503, the server
		// is healthy, just protecting its latency under overload.
		return http.StatusTooManyRequests
	case errors.Is(err, api.ErrCanceled):
		return StatusClientClosedRequest
	case errors.Is(err, api.ErrTimeout):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// writeEnvelope renders the single JSON error envelope every failure on
// both route families arrives in:
//
//	{"error": "<human message>", "code": "<machine code>"}
//
// The "error" field stays a plain string for compatibility with pre-v1
// clients (and the embedded UI) that surface it directly.
func writeEnvelope(w http.ResponseWriter, status int, msg, code string) {
	w.Header().Set("Content-Type", "application/json")
	// Every retryable degradation (429 overloaded, 503 replica_lagging /
	// no_primary / unavailable) carries Retry-After, so well-behaved clients
	// back off instead of hammering a node that is protecting itself.
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", "1")
		}
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg, "code": code})
}

// httpError is the envelope writer for handler-level failures that carry no
// typed error (malformed bodies, upload validation); the code is derived
// from the status.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	c := "internal"
	switch code {
	case http.StatusBadRequest:
		c = "bad_request"
	case http.StatusNotFound:
		c = "not_found"
	case http.StatusServiceUnavailable:
		c = "unavailable"
	}
	writeEnvelope(w, code, fmt.Sprintf(format, args...), c)
}

// writeJSON encodes a success payload that carries no community list (those
// stream through encodePage). Only a value that does not marshal, a bug, is
// logged; a write that fails is a client that hung up, which the logging
// middleware counts as a response abort.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	body, err := json.Marshal(v)
	if err != nil {
		log.Printf("encoding response: %v", err)
		return
	}
	if _, err := w.Write(body); err == nil {
		_, _ = w.Write([]byte{'\n'}) // encoding/json's Encoder ends a document so
	}
}

// decodeBody decodes a JSON request body into v, answering the envelope's
// 400 itself on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return false
	}
	return true
}

// pageOf slices list to the (limit, offset) window and reports the total.
// limit ≤ 0 means "everything after offset"; a negative offset is treated
// as 0; an offset past the end yields an empty page.
func pageOf[T any](list []T, limit, offset int) ([]T, int) {
	total := len(list)
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	list = list[offset:]
	if limit > 0 && len(list) > limit {
		list = list[:limit]
	}
	return list, total
}

// msec renders a duration as fractional milliseconds for JSON payloads.
func msec(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
