package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
)

// publishOnce guards the expvar registration: expvar.Publish panics on a
// duplicate name, and tests may wire the debug server more than once.
var publishOnce sync.Once

// PublishExpvar exposes the default registry's snapshot as the expvar
// variable "kbrepair" (visible at /debug/vars on the debug server).
func PublishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("kbrepair", expvar.Func(func() any {
			return Default().Snapshot()
		}))
	})
}

// extraHandlers are debug-server routes contributed by packages obs cannot
// import (layering: they import obs). internal/obs/flight registers /debugz
// here from its init, so any process linking flight serves bundles.
var (
	extraMu       sync.Mutex
	extraHandlers = map[string]http.Handler{}
)

// RegisterDebugHandler mounts a handler on every DebugMux built afterwards.
// Registering the same pattern twice keeps the latest handler.
func RegisterDebugHandler(pattern string, h http.Handler) {
	extraMu.Lock()
	defer extraMu.Unlock()
	extraHandlers[pattern] = h
}

// DebugMux builds the debug server's routing table: pprof handlers
// (/debug/pprof/...), expvar (/debug/vars), the Prometheus exposition of
// the default registry (/metrics), the live run status (/statusz), the
// per-rule profile (/profilez), and any registered extra handlers (/debugz
// when internal/obs/flight is linked). It is exported so tests can mount it
// on an httptest.Server.
func DebugMux() *http.ServeMux {
	PublishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", MetricsHandler())
	mux.Handle("/statusz", StatuszHandler())
	mux.Handle("/profilez", profilezHandler())
	extraMu.Lock()
	for p, h := range extraHandlers {
		mux.Handle(p, h)
	}
	extraMu.Unlock()
	return mux
}

// ServeDebug starts an HTTP server on addr exposing DebugMux. It listens
// synchronously — so an unusable address fails fast — then serves in a
// goroutine, and returns the bound address (useful with ":0": tests and
// scripts scrape the endpoints on an ephemeral port). The server lives for
// the process; if Serve ever fails the error is surfaced on stderr rather
// than silently dropped.
func ServeDebug(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := DebugMux()
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintf(os.Stderr, "obs: debug server on %s: %v\n", ln.Addr(), err)
		}
	}()
	return ln.Addr().String(), nil
}
