// Tests for POST /api/v1/cluster/join — the dynamic-membership front door.
package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vocabpipe/internal/cluster"
)

func postJoin(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestClusterJoinNotCoordinator: a single-node server refuses joins with
// the stable 409 not_coordinator code — the signal a misconfigured worker's
// heartbeat needs to log something actionable.
func TestClusterJoinNotCoordinator(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body := postJoin(t, ts, "/api/v1/cluster/join", `{"url":"http://w:1"}`)
	wantJSONError(t, status, body, http.StatusConflict, "not a coordinator")
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != ErrNotCoordinator {
		t.Errorf("error code = %q (%v), want %q", env.Error.Code, err, ErrNotCoordinator)
	}
}

// TestClusterJoin covers the coordinator's join contract: canonicalized
// adds, heartbeat-as-refresh (added=false), the ?url= override, and the
// envelope codes for missing and invalid URLs.
func TestClusterJoin(t *testing.T) {
	s, ts := newTestServer(t, Options{Cluster: &cluster.Options{}})

	decode := func(body []byte) (r struct {
		URL     string `json:"url"`
		Added   bool   `json:"added"`
		Members int    `json:"members"`
	}) {
		t.Helper()
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("bad join response: %v (%s)", err, body)
		}
		return r
	}

	status, body := postJoin(t, ts, "/api/v1/cluster/join", `{"url":"w1:8081"}`)
	if status != http.StatusOK {
		t.Fatalf("join status = %d (%s)", status, body)
	}
	if r := decode(body); r.URL != "http://w1:8081" || !r.Added || r.Members != 1 {
		t.Errorf("first join = %+v, want canonical URL, added, 1 member", r)
	}
	// A different spelling of the same worker is a heartbeat, not a member.
	status, body = postJoin(t, ts, "/api/v1/cluster/join", `{"url":"http://w1:8081/"}`)
	if r := decode(body); status != http.StatusOK || r.Added || r.Members != 1 {
		t.Errorf("heartbeat = %d %+v, want 200 with added=false and 1 member", status, r)
	}
	// The query parameter overrides the body, and the unversioned alias works.
	status, body = postJoin(t, ts, "/api/v1/cluster/join?url=w2:8082", `{"url":"ignored:1"}`)
	if r := decode(body); status != http.StatusOK || !r.Added || r.Members != 2 {
		t.Errorf("query join = %d %+v, want 2 members", status, r)
	}
	if h := s.Cluster().Health(); len(h) != 2 {
		t.Errorf("dispatcher sees %d members after joins, want 2", len(h))
	}

	status, body = postJoin(t, ts, "/api/v1/cluster/join", "")
	wantJSONError(t, status, body, http.StatusBadRequest, "missing worker url")
	status, body = postJoin(t, ts, "/api/v1/cluster/join", `{"url":"ftp://w:1"}`)
	wantJSONError(t, status, body, http.StatusBadRequest, "scheme")
	status, body = postJoin(t, ts, "/api/v1/cluster/join", `{"url":`)
	wantJSONError(t, status, body, http.StatusBadRequest, "bad JSON body")
}
