// Package client is the typed Go client for the rdfsumd /v1 HTTP API.
//
// It wraps every endpoint of the versioned surface — Query, Ingest,
// Delete, Summary, Stats, Compact, ReplicationStatus — plus the
// replication wire protocol followers tail (see repl.go), with context
// support on every call and typed errors: any non-2xx response decodes
// the server's JSON error envelope into an *Error carrying the HTTP
// status and the API's stable error code.
//
//	cl, err := client.New("http://localhost:8176")
//	res, err := cl.Query(ctx, `SELECT ?s ?o WHERE { ?s <http://x/p> ?o }`, nil)
//	if client.IsCode(err, "read_only") { /* talk to the leader instead */ }
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"rdfsum"
	"rdfsum/internal/obs"
)

// Client talks to one rdfsumd server. It is safe for concurrent use.
type Client struct {
	base string // scheme://host[:port], no trailing slash
	hc   *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles). The default is http.DefaultClient.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New builds a client for the server at baseURL (e.g.
// "http://localhost:8176"). The /v1 prefix is implied; do not include it.
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q: want http:// or https://", baseURL)
	}
	c := &Client{base: strings.TrimRight(u.String(), "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// BaseURL reports the server address the client was built with.
func (c *Client) BaseURL() string { return c.base }

// WithRequestID returns a context that pins the X-Request-Id sent on
// every request made with it, correlating client calls with the
// server's structured logs. Without it the server generates an ID and
// echoes it back (surfaced on failures via Error.RequestID).
func WithRequestID(ctx context.Context, id string) context.Context {
	return obs.WithRequestID(ctx, id)
}

// Error is a typed API error: the HTTP status and the stable error code
// from the server's JSON envelope. Branch on Code (or IsCode), not on the
// message text.
type Error struct {
	Status  int    // HTTP status code
	Code    string // stable API error code ("invalid_argument", "gone", ...)
	Message string
	// RetryAfter is the server's backoff hint from the Retry-After header
	// (zero when absent). Set on "ingest_overloaded" responses: the
	// server's bounded ingest queue is full, and the same request will
	// succeed once it drains.
	RetryAfter time.Duration
	// RequestID is the request's correlation ID echoed by the server in
	// X-Request-Id: quote it when reporting a failure and the server's
	// structured logs pinpoint the exact request.
	RequestID string
}

func (e *Error) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("rdfsumd: %s: %s (HTTP %d, request %s)", e.Code, e.Message, e.Status, e.RequestID)
	}
	return fmt.Sprintf("rdfsumd: %s: %s (HTTP %d)", e.Code, e.Message, e.Status)
}

// Retryable reports whether the same request can be expected to succeed
// after a backoff (RetryAfter when set): ingest backpressure (429) and
// transient server-side failures (502/503/504).
func (e *Error) Retryable() bool {
	switch e.Status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// IsCode reports whether err (or an error it wraps) is an API error with
// the given stable code.
func IsCode(err error, code string) bool {
	var ae *Error
	return errors.As(err, &ae) && ae.Code == code
}

// IsRetryable reports whether err (or an error it wraps) is an API error
// worth retrying after a backoff — see (*Error).Retryable.
func IsRetryable(err error) bool {
	var ae *Error
	return errors.As(err, &ae) && ae.Retryable()
}

// errorEnvelope mirrors the server's error envelope.
type errorEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// decodeError turns a non-2xx response into an *Error, decoding the JSON
// envelope when present and falling back to the raw body text otherwise.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
	reqID := resp.Header.Get(obs.HeaderRequestID)
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		return &Error{Status: resp.StatusCode, Code: env.Error.Code, Message: env.Error.Message, RetryAfter: retryAfter, RequestID: reqID}
	}
	return &Error{
		Status:     resp.StatusCode,
		Code:       "http_" + strconv.Itoa(resp.StatusCode),
		Message:    strings.TrimSpace(string(body)),
		RetryAfter: retryAfter,
		RequestID:  reqID,
	}
}

// parseRetryAfter decodes both RFC 9110 Retry-After forms: delta-seconds
// ("120") and an HTTP-date ("Fri, 08 Aug 2026 12:00:00 GMT"), the latter
// converted to a non-negative delay relative to now. Unparseable or past
// values yield zero — the previous code handled only the integer form, so
// an HTTP-date hint from an overloaded leader was silently dropped and
// retries fired immediately.
func parseRetryAfter(s string, now time.Time) time.Duration {
	if s == "" {
		return 0
	}
	if secs, err := strconv.Atoi(s); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(s); err == nil {
		if d := at.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// do issues one request against path (under /v1) and decodes the JSON
// response into out (skipped when out is nil).
func (c *Client) do(ctx context.Context, method, path string, q url.Values, contentType string, body io.Reader, out any) error {
	resp, err := c.send(ctx, method, path, q, contentType, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// send issues one request and returns the open response, with non-2xx
// statuses already converted to typed errors (body closed).
func (c *Client) send(ctx context.Context, method, path string, q url.Values, contentType string, body io.Reader) (*http.Response, error) {
	var hdr http.Header
	if contentType != "" {
		hdr = http.Header{"Content-Type": {contentType}}
	}
	return c.sendHeader(ctx, method, path, q, hdr, body)
}

// sendHeader is send with arbitrary request headers.
func (c *Client) sendHeader(ctx context.Context, method, path string, q url.Values, hdr http.Header, body io.Reader) (*http.Response, error) {
	u := c.base + "/v1" + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set(obs.HeaderRequestID, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp, nil
}

// Healthz checks server liveness.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, "", nil, nil)
}

// Stats mirrors GET /v1/stats.
type Stats struct {
	Triples         int    `json:"triples"`
	DataTriples     int    `json:"data_triples"`
	TypeTriples     int    `json:"type_triples"`
	SchemaTriples   int    `json:"schema_triples"`
	DataNodes       int    `json:"data_nodes"`
	ClassNodes      int    `json:"class_nodes"`
	Properties      int    `json:"properties"`
	Epoch           uint64 `json:"epoch"`
	Durable         bool   `json:"durable"`
	ReadOnly        bool   `json:"read_only"`
	WALBytes        int64  `json:"wal_bytes"`
	Generation      uint64 `json:"generation"`
	Deleted         uint64 `json:"deleted"`
	IndexRuns       int    `json:"index_runs"`
	IndexTombstones int    `json:"index_tombstones"`
	DictTerms       int    `json:"dict_terms"`

	// Ingest-queue occupancy (zero on servers without a queue, e.g.
	// followers rejecting writes).
	IngestQueueDepth    int    `json:"ingest_queue_depth"`
	IngestQueueMaxDepth int    `json:"ingest_queue_max_depth"`
	IngestQueueBytes    int64  `json:"ingest_queue_bytes"`
	IngestQueueMaxBytes int64  `json:"ingest_queue_max_bytes"`
	IngestQueueRejected uint64 `json:"ingest_queue_rejected"`
}

// Stats fetches graph size statistics and serving counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var out Stats
	if err := c.do(ctx, http.MethodGet, "/stats", nil, "", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SummaryInfo mirrors GET /v1/summary's JSON form.
type SummaryInfo struct {
	Kind        string  `json:"kind"`
	DataNodes   int     `json:"data_nodes"`
	AllNodes    int     `json:"all_nodes"`
	DataEdges   int     `json:"data_edges"`
	AllEdges    int     `json:"all_edges"`
	Compression float64 `json:"compression"`
	Epoch       uint64  `json:"epoch"`
	Stale       uint64  `json:"stale"`
}

// Summary fetches one summary kind's statistics ("" selects weak).
func (c *Client) Summary(ctx context.Context, kind string) (*SummaryInfo, error) {
	q := url.Values{}
	if kind != "" {
		q.Set("kind", kind)
	}
	var out SummaryInfo
	if err := c.do(ctx, http.MethodGet, "/summary", q, "", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SummaryNTriples streams one summary kind's graph in N-Triples form. The
// caller must Close the reader.
func (c *Client) SummaryNTriples(ctx context.Context, kind string) (io.ReadCloser, error) {
	q := url.Values{"format": {"ntriples"}}
	if kind != "" {
		q.Set("kind", kind)
	}
	resp, err := c.send(ctx, http.MethodGet, "/summary", q, "", nil)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// QueryOptions tune a Query call; the zero value (or nil) uses the server
// defaults.
type QueryOptions struct {
	// Limit caps the returned rows (0 = server default; the server also
	// enforces a hard cap).
	Limit int
	// Explain adds the execution report (per-pattern estimated vs.
	// actual cardinalities) to the result.
	Explain bool
	// Saturate evaluates against G∞.
	Saturate bool
	// Prune selects the summary kind gating provably-empty queries
	// ("" = server default weak, "off" disables).
	Prune string
}

// QueryResult mirrors POST /v1/query.
type QueryResult struct {
	Vars      []string        `json:"vars"`
	Rows      [][]string      `json:"rows"`
	Count     int             `json:"count"`
	Truncated bool            `json:"truncated"`
	Epoch     uint64          `json:"epoch"`
	PruneEp   *uint64         `json:"prune_epoch,omitempty"`
	Explain   json.RawMessage `json:"explain,omitempty"`
}

// Query evaluates a SPARQL BGP against the server's current epoch.
func (c *Client) Query(ctx context.Context, query string, opts *QueryOptions) (*QueryResult, error) {
	q := url.Values{}
	if opts != nil {
		if opts.Limit > 0 {
			q.Set("limit", strconv.Itoa(opts.Limit))
		}
		if opts.Explain {
			q.Set("explain", "true")
		}
		if opts.Saturate {
			q.Set("saturate", "true")
		}
		if opts.Prune != "" {
			q.Set("prune", opts.Prune)
		}
	}
	var out QueryResult
	if err := c.do(ctx, http.MethodPost, "/query", q,
		"application/sparql-query", strings.NewReader(query), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// IngestResult mirrors POST /v1/triples.
type IngestResult struct {
	Added   int    `json:"added"`
	Triples int    `json:"triples"`
	Epoch   uint64 `json:"epoch"`
	Durable bool   `json:"durable"`
}

// Ingest appends triples as one acknowledged batch (one WAL record + one
// fsync on durable leaders).
func (c *Client) Ingest(ctx context.Context, triples []rdfsum.Triple) (*IngestResult, error) {
	body, err := ntBody(triples)
	if err != nil {
		return nil, err
	}
	return c.IngestNTriples(ctx, body)
}

// IngestNTriples is Ingest with a streamed N-Triples body.
func (c *Client) IngestNTriples(ctx context.Context, body io.Reader) (*IngestResult, error) {
	return c.IngestStream(ctx, body, nil)
}

// IngestOptions tune a streaming ingest upload; the zero value (or nil)
// sends plain N-Triples.
type IngestOptions struct {
	// Format names the body's serialization and sets the Content-Type:
	// FormatNTriples (the default; FormatAuto is treated the same) or
	// FormatTurtle.
	Format rdfsum.Format
	// Compression compresses the upload on the fly as it streams —
	// CompressionGzip, declared via Content-Encoding so the server
	// decodes it as a streaming stage. CompressionNone (and
	// CompressionAuto) send the body as-is.
	Compression rdfsum.Compression
}

// contentType maps the chosen format to its media type.
func (o *IngestOptions) contentType() string {
	if o != nil && o.Format == rdfsum.FormatTurtle {
		return "text/turtle"
	}
	return "application/n-triples"
}

// IngestStream uploads an RDF document as one acknowledged batch,
// optionally compressing it on the fly. The body streams through — it is
// never materialized client-side. A server whose ingest queue is full
// answers with a Retryable *Error (code "ingest_overloaded") carrying
// the Retry-After hint.
func (c *Client) IngestStream(ctx context.Context, body io.Reader, opts *IngestOptions) (*IngestResult, error) {
	var out IngestResult
	if err := c.upload(ctx, http.MethodPost, body, opts, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// upload is the shared streaming-body path for ingest and delete.
func (c *Client) upload(ctx context.Context, method string, body io.Reader, opts *IngestOptions, out any) error {
	hdr := http.Header{"Content-Type": {opts.contentType()}}
	comp := rdfsum.CompressionNone
	if opts != nil {
		comp = opts.Compression
	}
	switch comp {
	case rdfsum.CompressionNone, rdfsum.CompressionAuto:
	case rdfsum.CompressionGzip:
		hdr.Set("Content-Encoding", "gzip")
	default:
		return fmt.Errorf("client: unsupported upload compression %v", comp)
	}
	if comp == rdfsum.CompressionGzip {
		pr, pw := io.Pipe()
		src := body // the goroutine must read the caller's reader, not the pipe
		go func() {
			enc, err := rdfsum.NewCompressionWriter(pw, comp)
			if err != nil {
				pw.CloseWithError(err)
				return
			}
			if _, err := io.Copy(enc, src); err != nil {
				pw.CloseWithError(err)
				return
			}
			pw.CloseWithError(enc.Close())
		}()
		body = pr
	}
	resp, err := c.sendHeader(ctx, method, "/triples", nil, hdr, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s /triples response: %w", method, err)
	}
	return nil
}

// DeleteResult mirrors DELETE /v1/triples.
type DeleteResult struct {
	Removed int    `json:"removed"`
	Triples int    `json:"triples"`
	Epoch   uint64 `json:"epoch"`
	Durable bool   `json:"durable"`
}

// Delete removes every stored copy of the listed triples as one
// acknowledged batch; absent triples are ignored.
func (c *Client) Delete(ctx context.Context, triples []rdfsum.Triple) (*DeleteResult, error) {
	body, err := ntBody(triples)
	if err != nil {
		return nil, err
	}
	return c.DeleteNTriples(ctx, body)
}

// DeleteNTriples is Delete with a streamed N-Triples body.
func (c *Client) DeleteNTriples(ctx context.Context, body io.Reader) (*DeleteResult, error) {
	return c.DeleteStream(ctx, body, nil)
}

// DeleteStream is IngestStream for deletions: the uploaded document's
// triples are removed as one acknowledged batch.
func (c *Client) DeleteStream(ctx context.Context, body io.Reader, opts *IngestOptions) (*DeleteResult, error) {
	var out DeleteResult
	if err := c.upload(ctx, http.MethodDelete, body, opts, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CompactResult mirrors POST /v1/compact.
type CompactResult struct {
	Epoch      uint64 `json:"epoch"`
	Generation uint64 `json:"generation"`
	WALBytes   int64  `json:"wal_bytes"`
}

// Compact folds the server's WAL into a fresh snapshot generation
// (durable stores only; followers tailing the old generation
// re-bootstrap).
func (c *Client) Compact(ctx context.Context) (*CompactResult, error) {
	var out CompactResult
	if err := c.do(ctx, http.MethodPost, "/compact", nil, "", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ReplicationStatus mirrors GET /v1/replication for every role; follower
// fields are zero on leaders and vice versa.
type ReplicationStatus struct {
	Role    string `json:"role"` // "leader", "follower" or "standalone"
	Durable bool   `json:"durable"`
	Epoch   uint64 `json:"epoch"`

	// Leader side.
	Generation uint64 `json:"generation,omitempty"`
	WALBytes   int64  `json:"wal_bytes,omitempty"`
	WALRecords int64  `json:"wal_records,omitempty"`

	// Follower side.
	Leader           string `json:"leader,omitempty"`
	State            string `json:"state,omitempty"`
	AppliedOffset    int64  `json:"applied_offset,omitempty"`
	AppliedRecords   int64  `json:"applied_records,omitempty"`
	LeaderEpoch      uint64 `json:"leader_epoch,omitempty"`
	LeaderWALBytes   int64  `json:"leader_wal_bytes,omitempty"`
	LeaderWALRecords int64  `json:"leader_wal_records,omitempty"`
	LagBytes         int64  `json:"lag_bytes"`
	LagRecords       int64  `json:"lag_records"`
	LagEpochs        uint64 `json:"lag_epochs"`
	Bootstraps       uint64 `json:"bootstraps,omitempty"`
	LastError        string `json:"last_error,omitempty"`
}

// ReplicationStatus fetches the server's replication role and, on
// followers, the current lag.
func (c *Client) ReplicationStatus(ctx context.Context) (*ReplicationStatus, error) {
	var out ReplicationStatus
	if err := c.do(ctx, http.MethodGet, "/replication", nil, "", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ntBody renders triples as an in-memory N-Triples request body.
func ntBody(triples []rdfsum.Triple) (io.Reader, error) {
	var b bytes.Buffer
	if err := rdfsum.WriteNTriples(&b, triples); err != nil {
		return nil, err
	}
	return &b, nil
}
