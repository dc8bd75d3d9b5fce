package report

import (
	"path/filepath"
	"strings"
	"testing"
)

func sampleBench() *BenchReport {
	return &BenchReport{
		SchemaVersion: BenchSchemaVersion,
		GitSHA:        "deadbeef",
		Date:          "2026-07-29T00:00:00Z",
		GoVersion:     "go1.24.0",
		GOOS:          "linux",
		GOARCH:        "amd64",
		MaxProcs:      1,
		Cases: []BenchCase{
			{Name: "engine/build/21B", N: 10, NsPerOp: 9.3e6, AllocsPerOp: 33000, BytesPerOp: 2e7},
			{Name: "sweep/table5", N: 1, NsPerOp: 5e8, AllocsPerOp: 1e6, BytesPerOp: 4e9,
				Cells: 120, CellsPerSec: 240},
		},
	}
}

func TestBenchRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	want := sampleBench()
	if err := WriteBenchFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != BenchSchemaVersion || got.GitSHA != "deadbeef" {
		t.Errorf("metadata round-trip: %+v", got)
	}
	if len(got.Cases) != 2 {
		t.Fatalf("cases round-trip: %+v", got.Cases)
	}
	if c := got.Case("sweep/table5"); c == nil || c.Cells != 120 || c.CellsPerSec != 240 {
		t.Errorf("Case lookup: %+v", c)
	}
	if got.Case("nope") != nil {
		t.Error("Case should return nil for a missing name")
	}
}

func TestBenchSchemaVersionRejected(t *testing.T) {
	_, err := ReadBench(strings.NewReader(`{"schema_version": 999, "cases": []}`))
	if err == nil || !strings.Contains(err.Error(), "schema_version 999") {
		t.Errorf("want schema rejection, got %v", err)
	}
	_, err = ReadBench(strings.NewReader(`not json`))
	if err == nil || !strings.Contains(err.Error(), "bad BENCH file") {
		t.Errorf("want parse error, got %v", err)
	}
}

func TestReadBenchFileMissing(t *testing.T) {
	if _, err := ReadBenchFile(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file should error")
	}
}
