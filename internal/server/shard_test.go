package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"vocabpipe/internal/cluster"
	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/report"
	"vocabpipe/internal/sweep"
)

// postShard POSTs a shard request body and returns status, body and headers.
func postShard(t *testing.T, ts *httptest.Server, body []byte) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/shard", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header
}

// shardBody builds the wire body for cells[r.Start:r.End] of the grid.
func shardBody(t *testing.T, g *sweep.Grid, r sweep.Range) []byte {
	t.Helper()
	raw, err := json.Marshal(cluster.NewShardRequest(g, g.Expand(), r))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestShardEndpoint proves the worker side of distributed mode: a shard's
// records equal the corresponding slice of the full grid's records, and a
// repeated identical shard is a cache hit.
func TestShardEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	g, err := sweep.ParseGrid(smallGrid)
	if err != nil {
		t.Fatal(err)
	}
	full := sweep.Run(g, sweep.Options{}).Records()
	r := sweep.Range{Start: 1, End: 2}
	body := shardBody(t, g, r)

	status, raw, hdr := postShard(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("status = %d (%s)", status, raw)
	}
	if got := hdr.Get("X-Cache"); got != "miss" {
		t.Errorf("first shard X-Cache = %q, want miss", got)
	}
	var recs []report.Record
	if err := json.Unmarshal(raw, &recs); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, full[r.Start:r.End]) {
		t.Errorf("shard records = %+v, want %+v", recs, full[r.Start:r.End])
	}

	if _, _, hdr := postShard(t, ts, body); hdr.Get("X-Cache") != "hit" {
		t.Errorf("repeated shard X-Cache = %q, want hit (identical shards must coalesce)", hdr.Get("X-Cache"))
	}
}

func TestShardEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	g, err := sweep.ParseGrid("model=4B;method=baseline;devices=2048;micro=16")
	if err != nil {
		t.Fatal(err)
	}
	overCap := shardBody(t, g, sweep.Range{Start: 0, End: 1})
	tests := []struct {
		name       string
		body       string
		wantStatus int
		fragment   string
	}{
		{"not json", "{nope", http.StatusBadRequest, "bad shard body"},
		{"no cells", `{"grid":"g"}`, http.StatusBadRequest, "no cells"},
		{"unknown method", `{"grid":"g","range":{"start":0,"end":1},"cells":[{"label":"a","method":"warp"}]}`,
			http.StatusBadRequest, "unknown method"},
		{"range mismatch", `{"grid":"g","range":{"start":0,"end":5},"cells":[{"label":"a","method":"baseline"}]}`,
			http.StatusBadRequest, "does not match"},
		{"server caps apply", string(overCap), http.StatusBadRequest, "2048 devices, limit 1024"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			status, raw, _ := postShard(t, ts, []byte(tt.body))
			wantJSONError(t, status, raw, tt.wantStatus, tt.fragment)
		})
	}
}

// TestShardRefusesNonZooShapes: a shard cell must be a zoo model's shape.
// Before, a hand-made one-cell body of 4B with 1,024 layers on 1,024
// devices passed every cap and was simulated (200 after ~0.7 s), past the
// 64 devices any zoo layout reaches.
func TestShardRefusesNonZooShapes(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cfg, _ := costmodel.ConfigByName("4B")
	deep := cfg
	deep.Layers, deep.Devices, deep.NumMicro = 1024, 1024, 256
	unknown := cfg
	unknown.Name = "4B-custom"
	for _, tc := range []struct {
		name     string
		cfg      costmodel.Config
		fragment string
	}{
		{"1,024 layers", deep, "is not model 4B's shape"},
		{"unknown model", unknown, `unknown model "4B-custom"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body, err := json.Marshal(cluster.ShardRequest{Grid: "g", Range: sweep.Range{Start: 0, End: 1},
				Cells: []cluster.WireCell{{Label: "a", Config: tc.cfg, Method: "baseline"}}})
			if err != nil {
				t.Fatal(err)
			}
			status, raw, _ := postShard(t, ts, body)
			wantJSONError(t, status, raw, http.StatusBadRequest, tc.fragment)
			var e ErrorEnvelope
			json.Unmarshal(raw, &e)
			if e.Error.Code != ErrInvalidGrid {
				t.Errorf("code = %q, want %q", e.Error.Code, ErrInvalidGrid)
			}
		})
	}
}

// TestShardCellErrorsArePayload mirrors the sweep contract: a cell whose
// simulation fails is an error record inside a 200 shard response, so the
// coordinator's merged output matches a single-node run's error records.
func TestShardCellErrorsArePayload(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	g, err := sweep.ParseGrid("model=4B;method=baseline;devices=7") // 32 % 7 != 0
	if err != nil {
		t.Fatal(err)
	}
	status, raw, _ := postShard(t, ts, shardBody(t, g, sweep.Range{Start: 0, End: 1}))
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 with error records (%s)", status, raw)
	}
	var recs []report.Record
	if err := json.Unmarshal(raw, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !strings.Contains(recs[0].Error, "not divisible") {
		t.Errorf("records = %+v, want one error record", recs)
	}
}
