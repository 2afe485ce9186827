package remote

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"
)

// Serve runs an HTTP server over ln until ctx is cancelled (SIGINT or
// SIGTERM in the binaries), then drains it. The order matters: a handler
// with a SetDraining method — every server built on httperr.Base — has
// readiness flipped off first, so /readyz answers 503 while the drain
// runs and balancers and half-open breaker probes stop re-admitting the
// process; then in-flight requests get up to grace to finish
// (http.Server.Shutdown); what is still open after that is closed and
// reported. A clean drain returns nil, so the process exits 0 under
// orchestrated restarts.
func Serve(ctx context.Context, ln net.Listener, handler http.Handler, grace time.Duration) error {
	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if d, ok := handler.(interface{ SetDraining(bool) }); ok {
		d.SetDraining(true)
	}
	log.Printf("signal received, draining in-flight requests (grace %v)", grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		// The grace period elapsed with requests still in flight; close
		// them and report the forced stop.
		hs.Close()
		return fmt.Errorf("graceful shutdown incomplete: %w", err)
	}
	return <-errc
}
