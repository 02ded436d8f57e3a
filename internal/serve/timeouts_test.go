package serve

import (
	"testing"

	"repro/internal/telemetry"
)

// TestServerTimeouts: the daemon bounds how long a client may take to
// send request headers and how long an idle connection is kept.
func TestServerTimeouts(t *testing.T) {
	d, err := New(Options{Addr: "127.0.0.1:0", Log: telemetry.NopLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.srv.ReadHeaderTimeout <= 0 || d.srv.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, IdleTimeout = %v; want both set", d.srv.ReadHeaderTimeout, d.srv.IdleTimeout)
	}
	if d.srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v would cut batch streams short", d.srv.WriteTimeout)
	}
}
