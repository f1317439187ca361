package serve

import (
	"context"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
)

// middleware wraps a handler.
type middleware func(http.Handler) http.Handler

// chain applies middlewares so the first listed runs outermost.
func chain(h http.Handler, mws ...middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// statusWriter records the response status for logging. It deliberately
// does not wrap Flush/Hijack generically: the eval handlers need Flusher,
// so it forwards that one interface explicitly.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Flush forwards to the underlying writer so NDJSON streaming works through
// the middleware stack.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// requestID roots every request in a span whose trace id doubles as the
// request id: an incoming W3C traceparent header (or bare X-Request-Id)
// propagates the caller's trace id, otherwise a fresh one is generated. The
// id is echoed in the X-Request-Id response header before the handler runs
// and carried on the context so the access log — and every span started
// below, down to individual LLM attempts — correlates by trace id.
func requestID(tracer *obs.Tracer) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := incomingTraceID(r)
			if id == "" {
				id = tracer.NewTraceID()
			}
			w.Header().Set("X-Request-Id", id)
			ctx, span := obs.StartTrace(obs.With(r.Context(), tracer), "http.request", id)
			span.SetString("method", r.Method)
			span.SetString("path", r.URL.Path)
			sw := &statusWriter{ResponseWriter: w}
			next.ServeHTTP(sw, r.WithContext(ctx))
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			span.SetInt("status", int64(sw.status))
			span.End()
		})
	}
}

// incomingTraceID extracts a propagated trace id from the request:
// traceparent ("00-<32 hex trace>-<16 hex span>-<flags>") wins, then a
// well-formed X-Request-Id. Anything malformed is ignored so a garbage
// header cannot pollute the trace ring with unparseable ids.
func incomingTraceID(r *http.Request) string {
	if tp := r.Header.Get("traceparent"); tp != "" {
		parts := strings.Split(tp, "-")
		if len(parts) >= 3 && isHexID(parts[1], 32) && parts[1] != strings.Repeat("0", 32) {
			return strings.ToLower(parts[1])
		}
	}
	if id := r.Header.Get("X-Request-Id"); isHexID(id, 32) {
		return strings.ToLower(id)
	}
	return ""
}

// isHexID reports whether s is exactly n hex digits.
func isHexID(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F') {
			return false
		}
	}
	return true
}

// requestLog logs one structured record per request: method, path, status,
// duration, and the trace id planted by requestID (so log lines join against
// exported spans and the X-Request-Id a client saw).
func requestLog(logger *slog.Logger) middleware {
	return func(next http.Handler) http.Handler {
		if logger == nil {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			logger.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"dur", time.Since(start).Round(time.Microsecond),
				"trace_id", obs.SpanFrom(r.Context()).TraceID(),
			)
		})
	}
}

// recovery converts handler panics into 500s instead of killing the
// connection, logging the stack when a logger is configured.
func recovery(logger *slog.Logger) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				if rec := recover(); rec != nil {
					if logger != nil {
						logger.Error("panic",
							"method", r.Method,
							"path", r.URL.Path,
							"value", rec,
							"stack", string(debug.Stack()),
						)
					}
					// Headers may already be out on a streaming response;
					// WriteHeader is then a no-op warning, which is fine.
					http.Error(w, "internal server error", http.StatusInternalServerError)
				}
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// bucketTable is the per-client state both admission limiters keep: one
// llm.TokenBucket per client key (remote host), all refilled at one rate up
// to one burst capacity.
type bucketTable struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	buckets map[string]*llm.TokenBucket
	now     func() time.Time // swapped in tests; nil means time.Now
}

// maxBuckets is a hard bound on the per-client map: bounded memory in the
// load-shedding path beats perfect per-client fairness.
const maxBuckets = 4096

// bucket returns key's bucket, creating a full one for a new client and
// pruning the table first when it is at its bound.
func (t *bucketTable) bucket(key string) *llm.TokenBucket {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.buckets[key]
	if !ok {
		if t.buckets == nil {
			t.buckets = map[string]*llm.TokenBucket{}
		}
		if len(t.buckets) >= maxBuckets {
			t.pruneLocked()
		}
		b = llm.NewTokenBucket(t.rate, t.burst)
		b.Clock = t.now
		t.buckets[key] = b
	}
	return b
}

// pruneLocked brings the table under its bound. An evicted client starts
// over with a full bucket, so eviction goes in order of what it forgives:
// fully refilled (idle) buckets first, which forgives nothing, then buckets
// that owe nothing, and debtors only as a last resort — dropping one would
// forgive its debt, the spend a budget exists to bound — to keep the
// memory bound hard.
func (t *bucketTable) pruneLocked() {
	for k, b := range t.buckets {
		if b.Full() {
			delete(t.buckets, k)
		}
	}
	for pass := 0; pass < 2 && len(t.buckets) >= maxBuckets; pass++ {
		for k, b := range t.buckets {
			if len(t.buckets) < maxBuckets {
				break
			}
			if pass == 0 && b.InDebt() {
				continue
			}
			delete(t.buckets, k)
		}
	}
}

// len reports the tracked-client count (tests).
func (t *bucketTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buckets)
}

// limiter is the request-rate admission state: a bucket per client refilled
// at rps with the given burst capacity. Admission is non-blocking — a
// request without a token is rejected, not queued — because shedding load
// at the edge is the point.
type limiter struct{ bucketTable }

func newLimiter(rps float64, burst int) *limiter {
	if burst < 1 {
		burst = 1
	}
	return &limiter{bucketTable{rate: rps, burst: float64(burst)}}
}

// allow takes a token for key, reporting admission and — on rejection — how
// long until a token is available.
func (l *limiter) allow(key string) (bool, time.Duration) {
	return l.bucket(key).TryTake()
}

// clientKey identifies the requester for rate limiting: the remote host
// without the ephemeral port.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// admission enforces a per-client request rate: over-limit requests get
// 429 with a Retry-After hint and count into the rate_limited metric.
// Liveness probes (/v1/healthz) are exempt so orchestrators can still see a
// saturated replica as alive. rps <= 0 disables the middleware.
func admission(rps float64, burst int, m *Metrics) middleware {
	if rps <= 0 {
		return func(next http.Handler) http.Handler { return next }
	}
	l := newLimiter(rps, burst)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/healthz" {
				next.ServeHTTP(w, r)
				return
			}
			ok, wait := l.allow(clientKey(r))
			if !ok {
				m.RateLimited.Add(1)
				secs := int(math.Ceil(wait.Seconds()))
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				httpError(w, http.StatusTooManyRequests, "rate limit exceeded; retry after %ds", secs)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// spendLimiter is the token-budget admission state: per client, a
// completion-token balance refilled at tokensPerMin/60 per second up to one
// minute's budget. Spend is post-paid — an eval's completion tokens are
// only known as results stream back, so each line debits the balance
// (possibly driving it negative) and the *next* request is shed until the
// balance refills past zero. That bounds a client's sustained spend at the
// configured rate while letting any single admitted eval finish.
type spendLimiter struct{ bucketTable }

func newSpendLimiter(tokensPerMin float64) *spendLimiter {
	return &spendLimiter{bucketTable{rate: tokensPerMin / 60, burst: tokensPerMin}}
}

// allow admits a request when the client's balance is positive, otherwise
// reporting how long until it refills past zero.
func (l *spendLimiter) allow(key string) (bool, time.Duration) {
	return l.bucket(key).Admit()
}

// debit charges completed tokens against the client's balance.
func (l *spendLimiter) debit(key string, tokens int) {
	if tokens > 0 {
		l.bucket(key).Debit(float64(tokens))
	}
}

// spendDebitKey carries the per-request debit hook from the spend-admission
// middleware to the eval stream.
type spendDebitKey struct{}

// spendAdmission enforces the per-client completion-token budget on eval
// requests, layered on (inside) the request-rate bucket: over-budget
// clients get 429 + Retry-After and count into the token_limited metric.
// Non-eval endpoints spend no completion tokens and pass through untouched.
// tokensPerMin <= 0 disables the middleware.
func spendAdmission(l *spendLimiter, m *Metrics) middleware {
	if l == nil {
		return func(next http.Handler) http.Handler { return next }
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasPrefix(r.URL.Path, "/v1/eval/") {
				next.ServeHTTP(w, r)
				return
			}
			key := clientKey(r)
			ok, wait := l.allow(key)
			if !ok {
				m.TokenLimited.Add(1)
				secs := int(math.Ceil(wait.Seconds()))
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				httpError(w, http.StatusTooManyRequests, "completion-token budget exhausted; retry after %ds", secs)
				return
			}
			ctx := context.WithValue(r.Context(), spendDebitKey{}, func(tokens int) {
				l.debit(key, tokens)
			})
			next.ServeHTTP(w, r.WithContext(ctx))
		})
	}
}

// count maintains the request counters around each request.
func count(m *Metrics) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			m.Requests.Add(1)
			m.InFlight.Add(1)
			defer m.InFlight.Add(-1)
			switch {
			case strings.HasPrefix(r.URL.Path, "/v1/eval/"):
				m.EvalRequests.Add(1)
			case strings.HasPrefix(r.URL.Path, "/v1/experiments"):
				m.ExperimentRequests.Add(1)
			}
			next.ServeHTTP(w, r)
		})
	}
}
