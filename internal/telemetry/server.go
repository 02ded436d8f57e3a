package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Server is the live observability endpoint for a running pipeline. It
// serves, rendered fresh from the attached recorder on every request:
//
//	/metrics        Prometheus text exposition (format 0.0.4)
//	/healthz        JSON readiness document with the current phase
//	/snapshot       the versioned JSON telemetry snapshot (live)
//	/debug/pprof/   the standard runtime profiling endpoints
//
// NewServer binds and serves in the background; Close shuts down
// gracefully — in-flight handlers drain, idle connections close, and the
// accept goroutine exits before Close returns, so a closed server leaks
// nothing.
type Server struct {
	rec   *Recorder
	ln    net.Listener
	srv   *http.Server
	start time.Time
	done  chan struct{}
	close sync.Once
	err   error
}

// Connection timeouts of the program's HTTP servers (this live metrics
// service and the scan daemon): a client has ReadHeaderTimeout to send its
// request headers, and a keep-alive connection idle for IdleTimeout is
// closed. Neither server sets a WriteTimeout: the daemon's batch replies
// stream for as long as the fleet takes, and /debug/pprof/profile runs for
// the duration it is asked for.
const (
	ReadHeaderTimeout = 10 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// NewServer starts serving the recorder's live state on addr (host:port;
// ":0" picks a free port, see Addr).
func NewServer(addr string, rec *Recorder) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{
		rec:   rec,
		ln:    ln,
		start: time.Now(),
		done:  make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	// The pprof handlers are registered explicitly on this mux instead of
	// importing net/http/pprof for its side effect on http.DefaultServeMux:
	// the server must not mutate global state.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: ReadHeaderTimeout,
		IdleTimeout:       IdleTimeout,
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.err = err
		}
	}()
	return s, nil
}

// Addr returns the bound address ("127.0.0.1:43211"), useful when the
// server was started on ":0".
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down gracefully: it stops accepting, waits for
// in-flight handlers (bounded by a 5s deadline, then hard-closes), and
// joins the accept goroutine. Idempotent; safe on a nil server.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.close.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.srv.Shutdown(ctx); err != nil {
			// Deadline hit: drop the stragglers so Close never hangs.
			s.srv.Close()
			if s.err == nil {
				s.err = err
			}
		}
		<-s.done
	})
	return s.err
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.rec.Snapshot().PromText())
}

// healthDoc is the /healthz readiness document.
type healthDoc struct {
	Status        string  `json:"status"`
	Phase         string  `json:"phase"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	doc := healthDoc{
		Status:        "ok",
		Phase:         s.rec.Phase(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	json.NewEncoder(w).Encode(doc)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	data, err := s.rec.Snapshot().JSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}
