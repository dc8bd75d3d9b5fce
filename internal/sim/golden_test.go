package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vocabpipe/internal/costmodel"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestSpecGolden pins BuildSpec beyond the paper's cells: every zoo model ×
// seq {2048, 4096} × vocab {32k, 64k, 128k, 256k, 1000} × devices {1, 2, 3,
// 4, 8, 16, 32, 64} × micro {1, 7, 32, 128} × method, 13,440 cells in all.
// Each (model, method) line of testdata/specs.golden counts its cells and
// layout errors and hashes every cell's spec JSON (or error text) with its
// PassCount, so a refactor of the spec builders must keep every field of
// every spec bit-identical. Regenerate with
// `go test ./internal/sim -run Golden -update` after an intended change.
func TestSpecGolden(t *testing.T) {
	models := append(costmodel.OneF1BConfigs(), costmodel.VHalfConfigs()...)
	var buf bytes.Buffer
	for _, base := range models {
		for _, m := range AllMethods {
			h := sha256.New()
			cells, errs := 0, 0
			for _, seq := range []int{2048, 4096} {
				for _, v := range []int{32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024, 1000} {
					for _, p := range []int{1, 2, 3, 4, 8, 16, 32, 64} {
						for _, micro := range []int{1, 7, 32, 128} {
							c := base.WithSeq(seq).WithVocab(v)
							c.Devices, c.NumMicro = p, micro
							cells++
							spec, err := BuildSpec(c, m)
							if err != nil {
								errs++
								fmt.Fprintf(h, "error %v\n", err)
							} else {
								js, err := json.Marshal(spec)
								if err != nil {
									t.Fatalf("%v/%v seq=%d vocab=%d p=%d micro=%d: spec does not encode: %v",
										base.Name, m, seq, v, p, micro, err)
								}
								h.Write(js)
							}
							fmt.Fprintf(h, "\npasses %d\n", PassCount(c, m))
						}
					}
				}
			}
			fmt.Fprintf(&buf, "%s %v cells=%d errors=%d sha256=%x\n", base.Name, m, cells, errs, h.Sum(nil))
		}
	}

	golden := filepath.Join("testdata", "specs.golden")
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
		t.Fatalf("specs deviate from %s (rerun with -update if the change is intended):\n%s", golden, buf.Bytes())
	}
}
