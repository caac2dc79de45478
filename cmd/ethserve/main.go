// Command ethserve runs the experiment campaign service: a resident
// HTTP server that accepts campaign submissions, streams per-run
// progress as server-sent events, and serves the digest-sealed
// artifacts — the same byte-identical run directories `ethrepro -out`
// writes, now available to anything that speaks HTTP.
//
//	POST   /campaigns                     submit a campaign (JSON body)
//	GET    /campaigns                     list campaigns
//	GET    /campaigns/{id}                campaign status
//	DELETE /campaigns/{id}                cancel (queued or running)
//	GET    /campaigns/{id}/events         SSE progress stream
//	GET    /campaigns/{id}/artifacts      artifact names
//	GET    /campaigns/{id}/artifacts/F    one artifact
//	GET    /metrics                       Prometheus text scrape
//	GET    /healthz                       liveness probe
//	GET    /version                       build info
//	GET    /debug/pprof/...               runtime profiles (-pprof only)
//
// Campaign artifacts land under -store as one subdirectory per
// campaign ID; `ethanalyze -verify <store>/<id>` checks any of them
// offline. See docs/SERVER.md for the API reference and
// docs/OBSERVABILITY.md for the metrics catalog.
//
// Usage:
//
//	ethserve [-addr :8080] [-store campaign_store] [-queue 16]
//	         [-campaigns 2] [-budget 0]
//	         [-telemetry] [-profile] [-pprof]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// Connection timeouts. A client that trickles its request headers, or
// parks an idle keep-alive connection, is cut off instead of pinning a
// connection forever. There is deliberately no WriteTimeout: SSE
// progress streams are long-lived responses.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "ethserve:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until ctx is cancelled. When
// ready is non-nil it receives the bound address once the listener is
// up (the e2e test binds :0 and needs the resolved port).
func run(ctx context.Context, args []string, logw io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("ethserve", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		storeDir  = fs.String("store", "campaign_store", "root directory for campaign artifacts (one subdirectory per campaign)")
		queue     = fs.Int("queue", 16, "max queued campaigns before submissions get 503")
		campaigns = fs.Int("campaigns", 2, "concurrent campaign executors")
		budget    = fs.Int("budget", 0, "total experiment workers across campaigns (0 = GOMAXPROCS)")
		telemetry = fs.Bool("telemetry", false, "seal a telemetry.json performance record into each campaign (wall-clock content; not byte-reproducible across hosts)")
		profile   = fs.Bool("profile", false, "capture per-campaign CPU+heap pprof pairs as sealed artifacts")
		pprofFlag = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logf := func(format string, a ...any) { fmt.Fprintf(logw, format+"\n", a...) }
	srv := server.New(server.Config{
		Queue:        *queue,
		Campaigns:    *campaigns,
		WorkerBudget: *budget,
		OpenStore: func(id string) (store.Store, error) {
			return store.NewFS(filepath.Join(*storeDir, id)), nil
		},
		Logf:      logf,
		Telemetry: *telemetry,
		Profile:   *profile,
		PProf:     *pprofFlag,
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	logf("ethserve: listening on %s, storing campaigns under %s", ln.Addr(), *storeDir)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful stop: close the listener and in-flight HTTP first, then
	// srv.Close (deferred) cancels running campaigns and drains them.
	logf("ethserve: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
