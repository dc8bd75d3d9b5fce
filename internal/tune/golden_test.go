package tune_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vocabpipe/internal/experiments"
	"vocabpipe/internal/tune"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestNamedScenarioGolden pins the tuner's answers: the JSON of every named
// scenario × strategy result must stay byte-identical to the checked-in
// golden, whatever the evaluation order or worker count. Regenerate with
// `go test ./internal/tune -run Golden -update` after an intended change.
func TestNamedScenarioGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, name := range experiments.TuneNames() {
		for _, st := range []tune.Strategy{tune.StrategyExhaustive, tune.StrategyBeam, tune.StrategyAnneal} {
			spec, _ := experiments.TuneSpec(name)
			res, err := tune.Search(context.Background(), spec, st, tune.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, st, err)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
	}

	golden := filepath.Join("testdata", "scenarios.golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("named scenario results deviate from %s (rerun with -update if the change is intended)", golden)
	}
}
