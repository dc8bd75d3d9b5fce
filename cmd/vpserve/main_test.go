package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"vocabpipe/internal/load"
)

func runVpserve(args ...string) (string, string, int) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr, nil)
	return stdout.String(), stderr.String(), code
}

// startServe boots run in serve mode on an ephemeral loopback port and
// returns the bound address, the channel its exit code arrives on, and its
// stderr (read it once the exit code has arrived).
func startServe(t *testing.T, args ...string) (addr string, done chan int, stderr *bytes.Buffer) {
	t.Helper()
	ready := make(chan string, 1)
	stderr = &bytes.Buffer{}
	done = make(chan int, 1)
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	go func() { done <- run(args, io.Discard, stderr, ready) }()
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("server never became ready (stderr %q)", stderr.String())
	}
	return addr, done, stderr
}

// stopServe delivers SIGTERM, which reaches every serve loop in the
// process, and requires each to drain and exit 0.
func stopServe(t *testing.T, dones ...chan int) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for _, done := range dones {
		select {
		case code := <-done:
			if code != 0 {
				t.Fatalf("exit %d", code)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("server did not shut down after SIGTERM")
		}
	}
}

// fetch GETs base+path and requires a 200.
func fetch(t *testing.T, base, path string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d (%s)", path, resp.StatusCode, body)
	}
	return body
}

func TestCLIErrors(t *testing.T) {
	if _, stderr, code := runVpserve("extra"); code != 2 || !strings.Contains(stderr, "unexpected arguments") {
		t.Errorf("extra args: code=%d stderr=%q", code, stderr)
	}
	if _, stderr, code := runVpserve("-nope"); code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
		t.Errorf("unknown flag: code=%d stderr=%q", code, stderr)
	}
}

// TestLoadtestMode drives the harness against an external stub URL and
// checks the report ledger on stdout.
func TestLoadtestMode(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	stdout, stderr, code := runVpserve("-loadtest", ts.URL,
		"-loadtest-duration", "100ms", "-loadtest-concurrency", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	var rep load.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("stdout is not a load report: %v (%s)", err, stdout)
	}
	if rep.Attempts == 0 || rep.Attempts != rep.OK+rep.NonOK+rep.Errors || rep.Scheduled != rep.Attempts+rep.Dropped {
		t.Errorf("ledger broken: %+v", rep)
	}
	if rep.Scenario != "closed-loop" || rep.MaxVUs != 2 || rep.Dropped != 0 {
		t.Errorf("closed-loop report = %+v", rep)
	}
	if !strings.Contains(stderr, "loadtest") {
		t.Errorf("missing summary on stderr: %q", stderr)
	}
}

func TestLoadtestFlagValidation(t *testing.T) {
	if _, stderr, code := runVpserve("-loadtest-duration", "1s"); code != 2 || !strings.Contains(stderr, "only applies to -loadtest") {
		t.Errorf("loadtest flag without -loadtest: code=%d stderr=%q", code, stderr)
	}
	if _, stderr, code := runVpserve("-loadtest", "not-a-url", "-loadtest-duration", "50ms"); code != 0 || stderr == "" {
		// A bad URL yields errored attempts, not a refusal: the ledger still
		// reports what happened and CI owns the policy.
		t.Errorf("bad URL: code=%d stderr=%q, want report with errors", code, stderr)
	}
}

// TestClosedLoopThresholds: -loadtest-thresholds gates a closed loop as it
// gates an open one — exit 0 when every gate holds, 4 on a breach — and the
// report carries the verdicts either way.
func TestClosedLoopThresholds(t *testing.T) {
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer ok.Close()
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer shedding.Close()

	for _, tc := range []struct {
		name       string
		url        string
		thresholds string
		wantCode   int
		wantOK     bool
	}{
		{"gates hold", ok.URL, "ok_rps>=1,error_rate<=0,non_ok_rate<=0", 0, true},
		{"throughput floor breached", ok.URL, "ok_rps>=1e12", 4, false},
		{"non-OK gate breached", shedding.URL, "non_ok_rate<1%", 4, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runVpserve("-loadtest", tc.url,
				"-loadtest-duration", "100ms", "-loadtest-concurrency", "2",
				"-loadtest-thresholds", tc.thresholds)
			if code != tc.wantCode {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.wantCode, stderr)
			}
			var rep load.Report
			if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
				t.Fatalf("stdout is not a load report: %v (%s)", err, stdout)
			}
			if rep.Scenario != "closed-loop" || rep.ThresholdsOK != tc.wantOK ||
				len(rep.Thresholds) != len(strings.Split(tc.thresholds, ",")) {
				t.Errorf("report: scenario %q, thresholds_ok %v, thresholds %+v", rep.Scenario, rep.ThresholdsOK, rep.Thresholds)
			}
		})
	}
}

// TestLoadtestGatesWarmedServe is the load gate end to end: boot serve
// mode, warm one sweep, then a closed-loop -loadtest against it must pass
// the throughput floor with no errors or non-OK answers, served from the
// cache: the server's own /metrics counters show at least 99% hits over
// the run.
func TestLoadtestGatesWarmedServe(t *testing.T) {
	addr, done, _ := startServe(t)
	defer stopServe(t, done)
	const path = "/api/v1/sweep?grid=model%3D4B%3Bmethod%3Dbaseline%2Cvocab-1%3Bvocab%3D32k%3Bmicro%3D16"
	fetch(t, addr, path)

	lookups := func() (hits, all float64) {
		t.Helper()
		count := map[string]float64{}
		for _, line := range strings.Split(string(fetch(t, addr, "/metrics")), "\n") {
			if f := strings.Fields(line); len(f) == 2 && strings.HasPrefix(f[0], "vpserve_cache_") {
				v, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					t.Fatalf("metrics line %q: %v", line, err)
				}
				count[f[0]] = v
			}
		}
		hits = count["vpserve_cache_hits_total"] + count["vpserve_cache_dedup_total"]
		return hits, hits + count["vpserve_cache_misses_total"]
	}
	hits0, all0 := lookups()
	stdout, stderr, code := runVpserve("-loadtest", "http://"+addr+path,
		"-loadtest-duration", "500ms", "-loadtest-concurrency", "4",
		"-loadtest-thresholds", "ok_rps>=100,error_rate<=0,non_ok_rate<=0")
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stderr %q, report %s)", code, stderr, stdout)
	}
	hits1, all1 := lookups()
	var rep load.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("stdout is not a load report: %v (%s)", err, stdout)
	}
	if all1-all0 < float64(rep.Attempts) {
		t.Errorf("%v cache lookups over the run for %d attempts", all1-all0, rep.Attempts)
	}
	if rate := 100 * (hits1 - hits0) / (all1 - all0); rate < 99 {
		t.Errorf("cache hit rate %.2f%% over the run, want >= 99%% on a warmed sweep", rate)
	}
}

// TestOpenLoopLoadtestMode switches -loadtest to the open-loop engine via
// -loadtest-stages and checks the open-loop report ledger on stdout.
func TestOpenLoopLoadtestMode(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	stdout, stderr, code := runVpserve("-loadtest", ts.URL+"/?i={i}",
		"-loadtest-stages", "200:200ms", "-loadtest-max-vus", "8",
		"-loadtest-thresholds", "error_rate<0.1%,p99<10s")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	var rep load.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("stdout is not an open-loop report: %v (%s)", err, stdout)
	}
	if rep.Scheduled == 0 || rep.Scheduled != rep.Attempts+rep.Dropped {
		t.Errorf("ledger broken: %+v", rep)
	}
	if rep.Scenario != "open-loop" || rep.MaxVUs != 8 || len(rep.Stages) != 1 || rep.Stages[0].Target != 200 {
		t.Errorf("open-loop shape: scenario %q, VUs %d, stages %+v", rep.Scenario, rep.MaxVUs, rep.Stages)
	}
	if !rep.ThresholdsOK || len(rep.Thresholds) != 2 {
		t.Errorf("thresholds: ok=%v %+v", rep.ThresholdsOK, rep.Thresholds)
	}
	// The open-loop report keeps every field name it had before the closed
	// loop folded into the same engine.
	var fields map[string]json.RawMessage
	if err := json.Unmarshal([]byte(stdout), &fields); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"url", "scenario", "max_vus", "duration_s", "scheduled", "dropped",
		"attempts", "ok", "non_ok", "errors", "scheduled_rps", "ok_rps", "p50_ms", "p90_ms",
		"p99_ms", "max_ms", "status_codes", "bytes_read", "stages", "thresholds", "thresholds_ok"} {
		if _, ok := fields[k]; !ok {
			t.Errorf("open-loop report lacks %q: %s", k, stdout)
		}
	}
	if !strings.Contains(stderr, "open-loop, 8 VUs") {
		t.Errorf("missing summary on stderr: %q", stderr)
	}
}

// TestOpenLoopThresholdGate: a breached SLO gate exits 4, distinct from the
// exit-1 "could not test" failures.
func TestOpenLoopThresholdGate(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	stdout, stderr, code := runVpserve("-loadtest", ts.URL,
		"-loadtest-stages", "100:200ms",
		"-loadtest-thresholds", "non_ok_rate<1%")
	if code != 4 {
		t.Fatalf("exit %d, want 4 (stderr %q)", code, stderr)
	}
	var rep load.Report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("gated run still prints the report: %v (%s)", err, stdout)
	}
	if rep.ThresholdsOK || rep.NonOK == 0 {
		t.Errorf("report = %+v", rep)
	}
}

// TestOpenLoopFlagValidation: misused load-test flags exit 2 before any
// request is sent; a stage list or threshold that does not parse exits 1.
func TestOpenLoopFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name     string
		args     []string
		code     int
		fragment string
	}{
		{"open-loop knob without a plan",
			[]string{"-loadtest", "http://x", "-loadtest-max-vus", "8"},
			2, "needs an open-loop plan"},
		{"concurrency on an open-loop run",
			[]string{"-loadtest", "http://x", "-loadtest-stages", "5:1s", "-loadtest-concurrency", "4"},
			2, "-loadtest-concurrency is a closed-loop knob"},
		// The stages set an open loop's length; before, -loadtest-duration
		// was silently ignored beside them.
		{"duration on an open-loop run",
			[]string{"-loadtest", "http://x", "-loadtest-stages", "50:300ms", "-loadtest-duration", "5s"},
			2, "-loadtest-duration is a closed-loop knob"},
		{"admission knob in loadtest mode",
			[]string{"-loadtest", "http://x", "-max-inflight", "4"},
			2, "does not apply to -loadtest"},
		{"debug knob in loadtest mode",
			[]string{"-loadtest", "http://x", "-debug"},
			2, "does not apply to -loadtest"},
		{"trace knob in loadtest mode",
			[]string{"-loadtest", "http://x", "-trace-ring", "16"},
			2, "does not apply to -loadtest"},
		{"slow-request knob in loadtest mode",
			[]string{"-loadtest", "http://x", "-slow-request", "100ms"},
			2, "does not apply to -loadtest"},
		{"open-loop flag without -loadtest",
			[]string{"-loadtest-stages", "5:1s"},
			2, "only applies to -loadtest"},
		{"bad stages",
			[]string{"-loadtest", "http://x", "-loadtest-stages", "nope"},
			1, "not TARGET:DURATION"},
		{"bad threshold",
			[]string{"-loadtest", "http://x", "-loadtest-stages", "5:1s", "-loadtest-thresholds", "bogus<5"},
			1, "unknown metric"},
	} {
		_, stderr, code := runVpserve(tc.args...)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.name, code, tc.code, stderr)
			continue
		}
		if !strings.Contains(stderr, tc.fragment) {
			t.Errorf("%s: stderr %q missing %q", tc.name, stderr, tc.fragment)
		}
	}
}

// TestSilentConnectionIsClosed: a client that connects and sends nothing is
// hung up on once the header timeout passes, instead of holding a goroutine,
// a socket and any graceful drain for as long as it likes. The read's 10-s
// deadline is only a backstop; the server must close the connection first.
func TestSilentConnectionIsClosed(t *testing.T) {
	addr, done, _ := startServe(t)
	defer stopServe(t, done)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(make([]byte, 1))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("the server kept a silent connection open until the client's deadline")
	}
	if err == nil {
		t.Fatalf("the server wrote %d bytes to a client that sent nothing", n)
	}
}

// TestServeGracefulShutdown boots the real serve loop on an ephemeral port,
// queries it over HTTP, then delivers SIGTERM and expects a clean drain.
func TestServeGracefulShutdown(t *testing.T) {
	addr, done, stderr := startServe(t)
	fetch(t, addr, "/healthz")
	stopServe(t, done)
	if out := stderr.String(); !strings.Contains(out, "shutting down") || !strings.Contains(out, "bye") {
		t.Errorf("shutdown log missing: %q", out)
	}
}

// TestClusterFlagValidation pins the -role/-workers flag contract, and the
// numeric flags' ranges: a value the help gives no meaning exits 2 before
// anything runs, where it used to run with the flag's default.
func TestClusterFlagValidation(t *testing.T) {
	tests := []struct {
		name     string
		args     []string
		fragment string
	}{
		{"workers without coordinator role", []string{"-workers", "h:1"}, "requires -role coordinator"},
		{"worker role with workers", []string{"-role", "worker", "-workers", "h:1"}, "requires -role coordinator"},
		{"unknown role", []string{"-role", "boss"}, "unknown -role"},
		{"hedge outside coordinator", []string{"-hedge-after", "1s"}, "requires -role coordinator"},
		{"probe outside coordinator", []string{"-probe-every", "1s"}, "requires -role coordinator"},
		{"member-ttl outside coordinator", []string{"-member-ttl", "1s"}, "requires -role coordinator"},
		// Satellite: seed URLs are validated at startup, not at first dispatch.
		{"workers URL with a path", []string{"-role", "coordinator", "-workers", "http://h:1/api"}, `-workers entry "http://h:1/api"`},
		{"workers URL without a host", []string{"-role", "coordinator", "-workers", "http://"}, "-workers entry"},
		{"workers URL with a bad scheme", []string{"-role", "coordinator", "-workers", "ftp://h:1"}, "-workers entry"},
		{"join outside worker role", []string{"-join", "h:1"}, "requires -role worker"},
		{"join on a coordinator", []string{"-role", "coordinator", "-join", "h:1"}, "requires -role worker"},
		{"bad join URL", []string{"-role", "worker", "-join", "http://h:1/api"}, "-join:"},
		{"advertise without join", []string{"-role", "worker", "-advertise", "h:2"}, "requires -join"},
		{"heartbeat without join", []string{"-role", "worker", "-heartbeat-every", "1s"}, "requires -join"},
		{"bad advertise URL", []string{"-role", "worker", "-join", "h:1", "-advertise", "ftp://h:2"}, "-advertise:"},
		{"state-dir in loadtest mode", []string{"-loadtest", "http://x", "-state-dir", "/tmp/x"}, "serving modes"},
		{"negative cache", []string{"-cache", "-5"}, "-cache must be positive, got -5"},
		{"zero cache", []string{"-cache", "0"}, "-cache must be positive, got 0"},
		{"negative max-cells", []string{"-max-cells", "-1"}, "-max-cells must be positive, got -1"},
		{"zero max-cells", []string{"-max-cells", "0"}, "-max-cells must be positive, got 0"},
		{"negative max-inflight", []string{"-max-inflight", "-7"}, "-max-inflight must not be negative, got -7"},
		{"negative job-workers", []string{"-job-workers", "-1"}, "-job-workers must be positive, got -1"},
		{"zero job-workers", []string{"-job-workers", "0"}, "-job-workers must be positive, got 0"},
		{"zero job-queue", []string{"-job-queue", "0"}, "-job-queue must be positive, got 0"},
		{"negative parallel", []string{"-parallel", "-4"}, "-parallel must not be negative, got -4"},
		{"zero shutdown-timeout", []string{"-shutdown-timeout", "0"}, "-shutdown-timeout must be positive, got 0s"},
		{"negative trace-ring", []string{"-trace-ring", "-1"}, "-trace-ring must not be negative, got -1"},
		{"negative slow-request", []string{"-slow-request", "-1s"}, "-slow-request must not be negative"},
		{"negative hedge-after", []string{"-role", "coordinator", "-hedge-after", "-1s"}, "-hedge-after must not be negative"},
		{"negative probe-every", []string{"-role", "coordinator", "-probe-every", "-1s"}, "-probe-every must not be negative"},
		{"negative member-ttl", []string{"-role", "coordinator", "-member-ttl", "-1s"}, "-member-ttl must not be negative"},
		// Expiry runs in the prober: no probes would silently mean no expiry.
		// The unbindable -addr makes a missed refusal fail, not serve.
		{"probe-every 0 with a member-ttl", []string{"-addr", "127.0.0.1:99999", "-role", "coordinator", "-probe-every", "0", "-member-ttl", "1s"}, "pass -member-ttl 0 too"},
		{"probe-every 0 with the default member-ttl", []string{"-addr", "127.0.0.1:99999", "-role", "coordinator", "-probe-every", "0"}, "pass -member-ttl 0 too"},
		{"negative heartbeat", []string{"-role", "worker", "-join", "h:1", "-heartbeat-every", "-1s"}, "-heartbeat-every must not be negative"},
		{"zero loadtest concurrency", []string{"-loadtest", "http://x", "-loadtest-concurrency", "0"}, "-loadtest-concurrency must be positive, got 0"},
		{"zero loadtest duration", []string{"-loadtest", "http://x", "-loadtest-duration", "0"}, "-loadtest-duration must be positive, got 0s"},
		{"zero loadtest VUs", []string{"-loadtest", "http://x", "-loadtest-stages", "5:1s", "-loadtest-max-vus", "0"}, "-loadtest-max-vus must be positive, got 0"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, stderr, code := runVpserve(tt.args...); code != 2 || !strings.Contains(stderr, tt.fragment) {
				t.Errorf("code=%d stderr=%q, want exit 2 mentioning %q", code, stderr, tt.fragment)
			}
		})
	}
}

// TestDocumentedZerosAccepted: the zeros and the negative -admit-queue that
// the flags' help gives a meaning still boot a server that answers.
func TestDocumentedZerosAccepted(t *testing.T) {
	addr, done, _ := startServe(t, "-parallel", "0", "-max-inflight", "0", "-admit-queue", "-1",
		"-trace-ring", "0", "-slow-request", "0")
	fetch(t, addr, "/api/v1/sweep?grid=model%3D4B%3Bmethod%3Dbaseline%3Bvocab%3D32k%3Bmicro%3D16")
	stopServe(t, done)
	// The cluster intervals' zeros, -probe-every 0 with the -member-ttl 0
	// it needs.
	addr, done, _ = startServe(t, "-role", "coordinator", "-probe-every", "0", "-member-ttl", "0", "-hedge-after", "0")
	fetch(t, addr, "/healthz")
	stopServe(t, done)
}

// TestCoordinatorDynamicSeeds pins two halves of the v2 membership
// contract at the flag level: a coordinator needs no seeds at all (workers
// join at runtime), and duplicate spellings of one seed collapse to a
// single member instead of getting double placement weight.
func TestCoordinatorDynamicSeeds(t *testing.T) {
	healthz := func(addr string) (h struct {
		Role    string `json:"role"`
		Workers []struct {
			URL string `json:"url"`
		} `json:"workers"`
	}) {
		t.Helper()
		if err := json.Unmarshal(fetch(t, addr, "/healthz"), &h); err != nil {
			t.Fatal(err)
		}
		return h
	}

	workerAddr, workerDone, _ := startServe(t, "-role", "worker")
	// Three spellings of the same worker → one member.
	seeds := workerAddr + " , http://" + workerAddr + ",http://" + workerAddr + "/"
	coordAddr, coordDone, _ := startServe(t, "-role", "coordinator", "-workers", seeds)
	if h := healthz(coordAddr); h.Role != "coordinator" || len(h.Workers) != 1 {
		t.Errorf("deduped coordinator healthz = %+v, want 1 member", h)
	}
	// No seeds at all is a valid coordinator now — membership is dynamic.
	bareAddr, bareDone, _ := startServe(t, "-role", "coordinator")
	if h := healthz(bareAddr); h.Role != "coordinator" || len(h.Workers) != 0 {
		t.Errorf("seedless coordinator healthz = %+v, want empty member list", h)
	}
	stopServe(t, workerDone, coordDone, bareDone)
}

// TestWorkerJoinHeartbeat boots a seedless coordinator and a worker started
// with -join, and proves the worker registers itself, serves sharded
// traffic byte-identically, and logs the registration once.
func TestWorkerJoinHeartbeat(t *testing.T) {
	coordAddr, coordDone, _ := startServe(t, "-role", "coordinator")
	workerAddr, workerDone, workerErr := startServe(t,
		"-role", "worker", "-join", coordAddr, "-heartbeat-every", "25ms")

	deadline := time.Now().Add(5 * time.Second)
	for {
		var h struct {
			Workers []struct {
				URL string `json:"url"`
			} `json:"workers"`
		}
		if err := json.Unmarshal(fetch(t, coordAddr, "/healthz"), &h); err != nil {
			t.Fatal(err)
		}
		if len(h.Workers) == 1 && h.Workers[0].URL == "http://"+workerAddr {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never joined: healthz workers = %+v", h.Workers)
		}
		time.Sleep(20 * time.Millisecond)
	}

	const path = "/api/v1/sweep?grid=model%3D4B%3Bmethod%3Dbaseline%2Cvocab-1%3Bvocab%3D32k%3Bmicro%3D16"
	if sharded, direct := fetch(t, coordAddr, path), fetch(t, workerAddr, path); string(sharded) != string(direct) {
		t.Error("coordinator response through a joined worker differs from the worker's own")
	}

	stopServe(t, workerDone, coordDone)
	if logs := workerErr.String(); strings.Count(logs, "registered with coordinator") != 1 {
		t.Errorf("want exactly one registration log line, got: %q", logs)
	}
}

// TestServeCoordinator boots a worker and a coordinator through the real
// serve loop and proves a sweep on the coordinator is sharded to the
// worker and byte-identical to the worker's own answer.
func TestServeCoordinator(t *testing.T) {
	workerAddr, workerDone, _ := startServe(t, "-role", "worker")
	coordAddr, coordDone, coordErr := startServe(t,
		"-role", "coordinator", "-workers", workerAddr, "-probe-every", "50ms")

	const path = "/api/v1/sweep?grid=model%3D4B%3Bmethod%3Dbaseline%2Cvocab-1%3Bvocab%3D32k%3Bmicro%3D16"
	sharded := fetch(t, coordAddr, path)
	direct := fetch(t, workerAddr, path)
	if string(sharded) != string(direct) {
		t.Error("coordinator response differs from the worker's own")
	}
	var h struct {
		Role     string `json:"role"`
		Dispatch *struct {
			Remote int64 `json:"remote"`
		} `json:"dispatch"`
	}
	if err := json.Unmarshal(fetch(t, coordAddr, "/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	if h.Role != "coordinator" || h.Dispatch == nil || h.Dispatch.Remote == 0 {
		t.Errorf("coordinator healthz = %+v, want coordinator role with remote shards", h)
	}

	// One SIGTERM reaches both in-process serve loops; both must drain.
	stopServe(t, workerDone, coordDone)
	if !strings.Contains(coordErr.String(), "role coordinator") {
		t.Errorf("coordinator log missing role: %q", coordErr.String())
	}
}

// sharedStderr is a stderr that records two misuses by concurrent loggers:
// Writes that overlap in time, and Writes after its owner returned. hold,
// when set, runs inside Write before the bytes land, so a test can keep one
// writer parked mid-Write.
type sharedStderr struct {
	mu       sync.Mutex
	buf      bytes.Buffer
	active   atomic.Int32
	overlaps atomic.Int32
	closed   atomic.Bool
	late     atomic.Int32
	hold     func(p []byte)
}

func (w *sharedStderr) Write(p []byte) (int, error) {
	if w.closed.Load() {
		w.late.Add(1)
	}
	if w.active.Add(1) > 1 {
		w.overlaps.Add(1)
	}
	defer w.active.Add(-1)
	if w.hold != nil {
		w.hold(p)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *sharedStderr) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestServeJoinsHeartbeatBeforeShutdownLog forces the window in which the
// heartbeat goroutine is still writing stderr when SIGTERM arrives: its
// "registration failing" line is parked inside Write until serve either
// logs over it or a second passes. serve must wait for the heartbeat before
// logging its shutdown, and nothing may write stderr after run returns.
func TestServeJoinsHeartbeatBeforeShutdownLog(t *testing.T) {
	// A coordinator address nobody listens on: registration fails fast.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := dead.Addr().String()
	dead.Close()

	held := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	stderr := &sharedStderr{}
	stderr.hold = func(p []byte) {
		if bytes.Contains(p, []byte("cluster registration failing")) {
			once.Do(func() {
				close(held)
				<-release
			})
		}
	}
	ready := make(chan string, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-role", "worker", "-join", coord,
			"-heartbeat-every", "10ms"}, io.Discard, stderr, ready)
	}()
	select {
	case <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("server never became ready (stderr %q)", stderr.String())
	}
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatalf("heartbeat never logged its failing registration (stderr %q)", stderr.String())
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Second); stderr.overlaps.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	select {
	case code := <-done:
		stderr.closed.Store(true)
		if code != 0 {
			t.Fatalf("exit %d, stderr %q", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down after SIGTERM")
	}
	time.Sleep(50 * time.Millisecond) // a stray heartbeat tick would log now
	if n := stderr.overlaps.Load(); n != 0 {
		t.Errorf("%d stderr writes overlapped another write: serve logged while the heartbeat was still writing", n)
	}
	if n := stderr.late.Load(); n != 0 {
		t.Errorf("%d stderr writes after run returned", n)
	}
	if out := stderr.String(); !strings.Contains(out, "shutting down") || !strings.Contains(out, "bye") {
		t.Errorf("shutdown log missing: %q", out)
	}
}
