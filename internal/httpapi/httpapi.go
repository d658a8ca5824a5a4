// Package httpapi defines the wire conventions shared by every HTTP
// surface of the system: the /v1 JSON error envelope, the stable error
// codes it carries, and the response helpers the rdfsumd handlers and the
// replication leader use to emit it. The public client package decodes
// the same envelope back into typed errors.
//
// Every error response has the shape
//
//	{"error": {"code": "<stable-code>", "message": "<human text>"}}
//
// with the HTTP status carrying the transport-level class and the code
// carrying the machine-readable cause. Codes are part of the API contract:
// clients branch on them (e.g. a replication follower re-bootstraps on
// "gone"), so existing codes never change meaning.
package httpapi

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
)

// Stable error codes of the /v1 API.
const (
	// CodeInvalidArgument: a query/path parameter failed validation.
	CodeInvalidArgument = "invalid_argument"
	// CodeParse: a request body failed to parse (N-Triples or SPARQL).
	CodeParse = "parse_error"
	// CodeTooLarge: the request body exceeded the ingest cap.
	CodeTooLarge = "payload_too_large"
	// CodeNotFound: no such route or resource.
	CodeNotFound = "not_found"
	// CodeGone: the requested replication generation was pruned by a
	// compaction; re-bootstrap from the current one.
	CodeGone = "gone"
	// CodeReadOnly: this replica is a follower; mutations go to the leader.
	CodeReadOnly = "read_only"
	// CodeMemoryOnly: the operation needs a durable (-live) store.
	CodeMemoryOnly = "memory_only"
	// CodeIngestOverloaded: the server's bounded ingest queue is full;
	// retry after the Retry-After header's delay.
	CodeIngestOverloaded = "ingest_overloaded"
	// CodeUnsupportedEncoding: the request's Content-Encoding is not one
	// the server can decode (identity, gzip, zstd).
	CodeUnsupportedEncoding = "unsupported_encoding"
	// CodeUnsupportedMediaType: the request's Content-Type is not an RDF
	// serialization the server reads (application/n-triples, text/turtle).
	CodeUnsupportedMediaType = "unsupported_media_type"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal = "internal"
)

// Error is one enveloped API error: an HTTP status, a stable code, and a
// human-readable message. It implements error, so handlers can thread it
// through ordinary error returns and let WriteError classify at the edge.
type Error struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Errorf builds an enveloped error.
func Errorf(status int, code, format string, args ...any) *Error {
	return &Error{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// envelope is the wire shape of every error response.
type envelope struct {
	Error *Error `json:"error"`
}

// WriteJSON writes v as a compact JSON 200 response: one line and its
// newline. Headers are already sent by the time an encode error can
// occur, so it is logged rather than silently dropped.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("httpapi: response encode: %v", err)
	}
}

// WriteError writes err as the JSON error envelope. An *Error supplies its
// own status and code; any other error is classified as a 500 internal.
func WriteError(w http.ResponseWriter, err error) {
	e, ok := err.(*Error)
	if !ok {
		e = &Error{Status: http.StatusInternalServerError, Code: CodeInternal, Message: err.Error()}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Status)
	if encErr := json.NewEncoder(w).Encode(envelope{Error: e}); encErr != nil {
		log.Printf("httpapi: error-response encode: %v", encErr)
	}
}
