package main

// Server gate: the listener binds before recovery so the daemon is
// live (answering /healthz) the moment the process is up, while
// readiness is withheld until the engine has recovered and the full
// handler is installed. Load balancers key off the status code;
// humans and probes get a JSON reason.

import (
	"expvar"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
)

const (
	phaseStarting = iota // recovering snapshot/WAL, handler not installed
	phaseReady           // serving
	phaseDraining        // shutdown in progress, reads still allowed
)

// serverGate is the daemon's root handler. It answers /healthz until
// the daemon is ready (liveness always answers; readiness is the status
// code) and routes everything else to the installed handler according
// to phase: starting refuses all traffic, draining refuses
// state-changing and federation requests but lets consumers keep
// reading.
type serverGate struct {
	phase  atomic.Int32
	reason atomic.Pointer[string]
	inner  atomic.Pointer[http.Handler]
}

func newServerGate() *serverGate {
	g := &serverGate{}
	g.setStarting("initializing")
	return g
}

func (g *serverGate) setStarting(reason string) {
	g.reason.Store(&reason)
	g.phase.Store(phaseStarting)
}

// setReady installs the full handler and flips readiness on. The
// handler is stored before the phase so no request can observe
// phaseReady with a nil handler.
func (g *serverGate) setReady(h http.Handler) {
	g.inner.Store(&h)
	g.phase.Store(phaseReady)
}

func (g *serverGate) setDraining() {
	reason := "shutting down"
	g.reason.Store(&reason)
	g.phase.Store(phaseDraining)
}

func (g *serverGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	phase := g.phase.Load()
	if r.URL.Path == "/healthz" && phase != phaseReady {
		// 503 with the phase and reason, so an operator can tell a
		// recovering daemon from a draining one. While ready the
		// handler answers (daemon.healthz).
		state := "starting"
		if phase == phaseDraining {
			state = "draining"
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": state, "reason": g.reasonString()})
		return
	}
	switch phase {
	case phaseStarting:
		httpError(w, http.StatusServiceUnavailable, "starting: %s", g.reasonString())
		return
	case phaseDraining:
		if r.Method != http.MethodGet {
			httpError(w, http.StatusServiceUnavailable, "shutting down")
			return
		}
	}
	(*g.inner.Load()).ServeHTTP(w, r)
}

func (g *serverGate) reasonString() string {
	if p := g.reason.Load(); p != nil {
		return *p
	}
	return ""
}

// serveDebug exposes net/http/pprof and expvar on their own listener,
// kept off the public mux so profiling endpoints are never reachable
// through the service port. Returns the bound address.
func serveDebug(addr string, logger *slog.Logger) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "treesimd debug: /debug/pprof/ /debug/vars\n")
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			logger.Warn("debug listener exited", "err", err.Error())
		}
	}()
	return ln.Addr().String(), nil
}
