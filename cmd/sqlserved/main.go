// Command sqlserved runs the benchmark as an HTTP evaluation service.
//
// Usage:
//
//	sqlserved -addr :8080
//	sqlserved -addr :8080 -seed 2 -verify -parallel 16
//	sqlserved -addr :8080 -rps 10 -burst 20         # per-client admission control
//	sqlserved -addr :8080 -tokens-per-min 50000     # per-client token-spend budget
//	sqlserved -addr :8080 -models @models.json      # drive real model endpoints
//	sqlserved -addr :8080 -pprof-addr :6060         # profiling on a side listener
//
// Endpoints:
//
//	POST /v1/eval/{task}                       evaluate SQL against any registered task, NDJSON stream
//	GET  /v1/tasks                             task discovery (ids, skills, datasets, params)
//	GET  /v1/experiments                       list paper artifacts
//	GET  /v1/experiments/{id}?seed=N&verify=0  rendered artifact
//	GET  /v1/healthz                           liveness
//	GET  /v1/metrics                           telemetry families (JSON)
//	GET  /v1/metrics/prom                      same families, Prometheus text format
//	GET  /v1/trace                             recent request spans (bounded ring)
//
// Both metrics endpoints render one registry: the service families in
// internal/serve and the per-model families (llm.ModelFamilies).
//
// Every response carries an X-Request-Id header (propagated from an incoming
// traceparent or X-Request-Id, else generated); request logs and trace spans
// correlate by that id. See README.md for request shapes and curl examples.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/llm"
	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		seed      = flag.Int64("seed", 1, "default benchmark seed (per-request override via seed)")
		verify    = flag.Bool("verify", false, "engine-verify equivalence pairs when building benchmarks (slower cold start)")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for benchmark builds and eval fan-out")
		envCap    = flag.Int("env-cache", 0, "max cached evaluation environments, LRU-evicted (0 = default 4, negative = unbounded)")
		rps       = flag.Float64("rps", 0, "per-client admission rate limit in requests/second (0 = unlimited); over-limit requests get 429 + Retry-After")
		burst     = flag.Int("burst", 10, "admission-control burst capacity per client")
		tpm       = flag.Float64("tokens-per-min", 0, "per-client completion-token budget per minute for eval requests (0 = unlimited); over-budget requests get 429 and count as token_limited")
		models    = flag.String("models", "", "JSON model specs (or @file) replacing the default simulated models; providers: sim, http")
		traceRing = flag.Int("trace-ring", 0, "max completed spans retained for GET /v1/trace (0 = default 2048, negative = disabled)")
		pprofAddr = flag.String("pprof-addr", "", "listen address for net/http/pprof (empty = disabled); kept off the service listener so profiling is never exposed by accident")
		quiet     = flag.Bool("quiet", false, "disable request logging")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	reqLogger := logger
	if *quiet {
		reqLogger = nil
	}
	var specs []llm.Spec
	if *models != "" {
		var err error
		specs, err = llm.ParseSpecsArg(*models)
		if err != nil {
			logger.Error("-models", "err", err)
			os.Exit(1)
		}
	}
	s := serve.NewServer(serve.Config{
		DefaultSeed:  *seed,
		Verify:       *verify,
		Parallel:     *parallel,
		EnvCacheCap:  *envCap,
		RPS:          *rps,
		Burst:        *burst,
		TokensPerMin: *tpm,
		Models:       specs,
		Logger:       reqLogger,
		TraceRing:    *traceRing,
	})

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The pprof listener is separate from the service listener on purpose:
	// profiling endpoints leak heap contents and must never ride along on an
	// address that might be reachable by eval clients. The blank pprof import
	// registers its handlers on http.DefaultServeMux, which only this
	// listener serves.
	if *pprofAddr != "" {
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof", "err", err)
			}
		}()
	}

	// Serve until SIGINT/SIGTERM, then drain connections. Streaming eval
	// responses get a grace period to finish their prefixes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "seed", *seed, "verify", *verify, "parallel", *parallel)

	select {
	case err := <-errc:
		logger.Error("serve", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("shutdown", "err", err)
	}
}
