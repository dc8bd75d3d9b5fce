package server

import (
	"context"
	"net"
	"net/http"
	"time"
)

// StartLocal serves the handler on an ephemeral loopback port and returns
// the base URL plus a stop function that gracefully drains the listener.
// It backs `vpserve -selftest`, the perfbench workloads and the examples;
// production serving goes through cmd/vpserve's http.Server with signal
// handling.
func StartLocal(s *Server) (baseURL string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), stop, nil
}
