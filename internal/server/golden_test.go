package server

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vocabpipe/internal/report"
)

// TestExperimentTable5Golden cross-checks the serving layer against the
// CLI's committed golden: /api/v1/experiments/table5 must decode to exactly the
// records in cmd/vpbench/testdata/table5.golden.json (and, since both go
// through report.WriteJSON, match it byte for byte). A drift here means the
// HTTP API and `vpbench -json table5` no longer compute the same table.
func TestExperimentTable5Golden(t *testing.T) {
	goldenPath := filepath.Join("..", "..", "cmd", "vpbench", "testdata", "table5.golden.json")
	goldenBytes, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading CLI golden: %v", err)
	}
	var want []report.Record
	if err := json.Unmarshal(goldenBytes, &want); err != nil {
		t.Fatalf("golden does not decode: %v", err)
	}
	if len(want) != 120 {
		t.Fatalf("golden has %d records, want 120 (3 models × 2 seqs × 4 vocabs × 5 methods)", len(want))
	}

	_, ts := newTestServer(t, Options{})
	status, body, _ := get(t, ts, "/api/v1/experiments/table5")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}

	var got []report.Record
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("response does not decode: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, golden has %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("record %d differs:\nserver %+v\ngolden %+v", i, got[i], want[i])
		}
	}
	if string(body) != string(goldenBytes) {
		t.Error("response bytes differ from the committed golden (same records, different serialization?)")
	}
}
