package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"testing"
	"time"

	"vocabpipe/internal/load"
)

// TestOpenLoopSpikeDegradesGracefully is the in-process version of the CI
// spike gate: a tiny server (one admission slot, a two-deep accept queue)
// takes a 20× overload spike from the open-loop engine and must degrade by
// shedding — fast enveloped 429s with Retry-After — while every response it
// does serve stays fast, nothing errors at the transport level, and the
// ledgers on both sides reconcile exactly. Throughout the spike a prober
// GETs a warmed key every 2 ms, and every probe must answer 200 hit: only
// computes are admitted, so the cold overload cannot shed a cached read. Run
// under -race in CI, this is also the admission controller's concurrency
// proof against real traffic.
func TestOpenLoopSpikeDegradesGracefully(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxInFlight: 1, AdmitQueue: 2, Parallel: 1})
	warm := sweepPath(smallGrid)
	if status, body, _ := get(t, ts, warm); status != http.StatusOK {
		t.Fatalf("warm-up: status %d (%s)", status, body)
	}

	// Cold grids: micro sweeps 64..562, so nearly every arrival is a
	// distinct cache key and must queue for the one compute slot. Seven
	// 10B cells per request keep the service time well above the spike's
	// inter-arrival gap — a single cheap cell no longer saturates one slot
	// now that the sweep path reuses warm engines — while staying light
	// enough that queued responses hold the p99 gate under -race.
	urlTmpl := ts.URL + "/api/v1/sweep?grid=" +
		url.QueryEscape("model=10B;method=all;vocab=256k;micro=") + "{64+i%499}"

	// 50 req/s, a cliff to 1000 req/s for the middle 180 ms, and back: 200
	// arrivals over 600 ms.
	sc, err := load.ParseStages("start=50,50:210ms,1000:0s,1000:180ms,50:0s,50:210ms")
	if err != nil {
		t.Fatal(err)
	}
	th, err := load.ParseThresholds("p99<1000ms,error_rate<0.1%")
	if err != nil {
		t.Fatal(err)
	}
	before := s.requests.Load()
	stopProbe := make(chan struct{})
	probed := make(chan probeLedger, 1)
	go func() { probed <- probeHits(ts.URL+warm, 2*time.Millisecond, stopProbe) }()
	rep, err := load.Run(context.Background(), urlTmpl, load.Options{
		Scenario:   sc,
		VUs:        32,
		Thresholds: th,
	})
	close(stopProbe)
	probes := <-probed
	if err != nil {
		t.Fatal(err)
	}
	served := s.requests.Load() - before - int64(probes.n)

	t.Logf("spike: %d attempts, %d shed; %d probes of the warmed key", rep.Attempts, rep.StatusCodes["429"], probes.n)
	// Every probe of the warmed key was a fast-path hit, none shed.
	if len(probes.bad) > 0 {
		t.Errorf("%d of %d probes of a cached key were not 200 hit: %v", len(probes.bad), probes.n, probes.bad)
	}
	if probes.n < 10 {
		t.Errorf("the prober made only %d probes during the spike", probes.n)
	}

	// Ledger identities, and the client's attempts reconcile exactly with
	// what the server's own middleware counted — shed responses included.
	if rep.Scheduled != rep.Attempts+rep.Dropped {
		t.Fatalf("Scheduled %d != Attempts %d + Dropped %d", rep.Scheduled, rep.Attempts, rep.Dropped)
	}
	if rep.Attempts != rep.OK+rep.NonOK+rep.Errors {
		t.Fatalf("Attempts %d != OK %d + NonOK %d + Errors %d", rep.Attempts, rep.OK, rep.NonOK, rep.Errors)
	}
	if int64(rep.Attempts) != served {
		t.Fatalf("client attempted %d, server counted %d", rep.Attempts, served)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d transport errors during the spike", rep.Errors)
	}
	if rep.OK == 0 {
		t.Fatal("nothing served during the spike")
	}

	// The overload must surface as shedding: enveloped 429s, every one
	// carrying Retry-After, all speaking the shed_overload code.
	n429 := rep.StatusCodes["429"]
	if n429 == 0 {
		t.Fatalf("20× overload produced no 429s (status %v)", rep.StatusCodes)
	}
	if rep.ErrorCodes["shed_overload"] != n429 {
		t.Fatalf("error codes %v: want %d shed_overload", rep.ErrorCodes, n429)
	}
	if rep.RetryAfter429 != n429 {
		t.Fatalf("only %d of %d 429s carried Retry-After", rep.RetryAfter429, n429)
	}
	if !rep.ThresholdsOK {
		t.Fatalf("SLO gates failed under shed-protected overload: %+v", rep.Thresholds)
	}

	// The server's own admission ledger saw the sheds, and the controller
	// leaked nothing.
	st := s.admit.stats()
	if st.Shed == 0 {
		t.Fatal("admission controller recorded no sheds")
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("admission state leaked after the run: %+v", st)
	}

	// The server is healthy after the storm.
	if status, body, _ := get(t, ts, "/healthz"); status != http.StatusOK {
		t.Fatalf("healthz after spike: %d (%s)", status, body)
	}
	if status, _, _ := get(t, ts, warm); status != http.StatusOK {
		t.Fatalf("sweep after spike: %d", status)
	}
}

// probeLedger is what probeHits saw: how many GETs it sent, and a
// description of each that did not answer 200 with X-Cache: hit.
type probeLedger struct {
	n   int
	bad []string
}

// probeHits GETs target every interval until stop closes.
func probeHits(target string, every time.Duration, stop <-chan struct{}) probeLedger {
	var l probeLedger
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return l
		case <-tick.C:
		}
		l.n++
		resp, err := http.Get(target)
		if err != nil {
			l.bad = append(l.bad, err.Error())
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
			l.bad = append(l.bad, fmt.Sprintf("%d %q", resp.StatusCode, resp.Header.Get("X-Cache")))
		}
	}
}
