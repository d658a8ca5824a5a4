package obs

import (
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// HeaderRequestID is the request-correlation header: accepted from the
// client when present (and well-formed), generated otherwise, and
// always echoed on the response.
const HeaderRequestID = "X-Request-Id"

// HTTPMetrics holds the per-route request instrumentation families.
// Register one set per server registry.
type HTTPMetrics struct {
	durations *HistogramVec
	sizes     *HistogramVec
}

// NewHTTPMetrics registers the HTTP request histograms on r.
func NewHTTPMetrics(r *Registry) *HTTPMetrics {
	return &HTTPMetrics{
		durations: r.HistogramVec("rdfsum_http_request_duration_seconds",
			"HTTP request latency by route pattern, method, and status code.",
			DefBuckets, "route", "method", "code"),
		sizes: r.HistogramVec("rdfsum_http_response_bytes",
			"HTTP response body size by route pattern.",
			SizeBuckets, "route"),
	}
}

// respWriter captures status and bytes written; Unwrap keeps
// http.ResponseController features (flush, hijack) reachable.
type respWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *respWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Middleware wraps next with request instrumentation: a request ID
// (accepted or generated, echoed as X-Request-Id and installed in the
// request context), a latency+size histogram keyed by the matched route
// pattern, and one structured log line per request. Health and metrics
// scrapes log at debug so steady-state probes don't drown the log.
func Middleware(next http.Handler, m *HTTPMetrics, logger *slog.Logger) http.Handler {
	if logger == nil {
		logger = slog.Default()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		id := sanitizeRequestID(r.Header.Get(HeaderRequestID))
		if id == "" {
			id = NewRequestID()
		}
		ctx := WithRequestID(r.Context(), id)
		r = r.WithContext(ctx)
		w.Header().Set(HeaderRequestID, id)

		rw := &respWriter{ResponseWriter: w}
		next.ServeHTTP(rw, r)

		if rw.status == 0 {
			rw.status = http.StatusOK
		}
		route := routeLabel(r)
		dur := time.Since(t0)
		if m != nil {
			m.durations.With(route, r.Method, strconv.Itoa(rw.status)).Observe(dur.Seconds())
			m.sizes.With(route).Observe(float64(rw.bytes))
		}
		lvl := slog.LevelInfo
		if quietPath(r.URL.Path) {
			lvl = slog.LevelDebug
		}
		logger.LogAttrs(ctx, lvl, "http request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", route),
			slog.Int("status", rw.status),
			slog.Int64("bytes", rw.bytes),
			slog.Duration("duration", dur),
			slog.String("remote", r.RemoteAddr),
		)
	})
}

// routeLabel returns the ServeMux pattern that matched (path part only,
// method stripped), keeping metric cardinality bounded no matter what
// paths clients probe. Unmatched requests collapse to one label.
func routeLabel(r *http.Request) string {
	p := r.Pattern
	if p == "" {
		return "unmatched"
	}
	if _, path, ok := strings.Cut(p, " "); ok {
		return path
	}
	return p
}

// quietPath reports whether a path is a steady-state probe (health or
// metrics scrape) that should log at debug instead of info.
func quietPath(p string) bool {
	switch p {
	case "/v1/healthz", "/v1/metrics":
		return true
	}
	return false
}
