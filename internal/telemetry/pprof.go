package telemetry

import (
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers
)

// EnablePprof serves the standard net/http/pprof handlers on addr
// (e.g. "localhost:6060") for live profiling of long runs. It returns
// once the listener is up; the server runs until the process exits.
func EnablePprof(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("telemetry: pprof: %w", err)
	}
	go func() {
		// DefaultServeMux carries the pprof handlers via the blank import.
		_ = http.Serve(ln, nil)
	}()
	return nil
}
