package sweep

import (
	"fmt"
	"testing"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/report"
	"vocabpipe/internal/sim"
)

func TestSplitCells(t *testing.T) {
	tests := []struct {
		n, parts int
		want     []Range
	}{
		{0, 4, nil},
		{1, 4, []Range{{0, 1}}},
		{4, 4, []Range{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
		{5, 2, []Range{{0, 3}, {3, 5}}},
		{10, 3, []Range{{0, 4}, {4, 7}, {7, 10}}},
		{6, 0, []Range{{0, 6}}},                  // parts < 1 clamps to 1
		{3, 10, []Range{{0, 1}, {1, 2}, {2, 3}}}, // never more parts than cells
	}
	for _, tt := range tests {
		t.Run(fmt.Sprintf("n%d_p%d", tt.n, tt.parts), func(t *testing.T) {
			got := SplitCells(tt.n, tt.parts)
			if len(got) != len(tt.want) {
				t.Fatalf("SplitCells(%d, %d) = %v, want %v", tt.n, tt.parts, got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("SplitCells(%d, %d) = %v, want %v", tt.n, tt.parts, got, tt.want)
				}
			}
		})
	}
}

// TestSplitCellsTiles property-checks the contract over a grid of sizes:
// contiguous coverage of [0, n), non-empty ranges, sizes within one of each
// other, larger shards first.
func TestSplitCellsTiles(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for parts := 1; parts <= 12; parts++ {
			rs := SplitCells(n, parts)
			next, minLen, maxLen := 0, n+1, 0
			for _, r := range rs {
				if r.Start != next || r.Len() <= 0 {
					t.Fatalf("n=%d parts=%d: ranges %v are not a contiguous tiling", n, parts, rs)
				}
				next = r.End
				if r.Len() < minLen {
					minLen = r.Len()
				}
				if r.Len() > maxLen {
					maxLen = r.Len()
				}
			}
			if next != n || maxLen-minLen > 1 {
				t.Fatalf("n=%d parts=%d: ranges %v (coverage end %d, size spread %d)", n, parts, rs, next, maxLen-minLen)
			}
			if rs[0].Len() != maxLen {
				t.Fatalf("n=%d parts=%d: larger shards must come first: %v", n, parts, rs)
			}
		}
	}
}

func TestShardable(t *testing.T) {
	eval := func(Cell) (*sim.Result, error) { return nil, nil }
	tests := []struct {
		name string
		g    *Grid
		want bool
	}{
		{"plain axes grid", &Grid{Name: "g", Methods: sim.OneF1BMethods}, true},
		{"explicit cells", &Grid{Cells: []Cell{{Label: "a"}, {Label: "b"}}}, true},
		{"cell-level eval", &Grid{Cells: []Cell{{Label: "a"}, {Label: "b", Eval: eval}}}, false},
		{"keep-timelines is fine", &Grid{KeepTimelines: true, Cells: []Cell{{Label: "a"}}}, true},
	}
	for _, tt := range tests {
		if got := Shardable(tt.g); got != tt.want {
			t.Errorf("%s: Shardable = %v, want %v", tt.name, got, tt.want)
		}
	}
}

// TestSubgridEvaluatesLikeParent proves a shard's records equal the parent
// grid's records over the same index range — the property the cluster
// merge depends on.
func TestSubgridEvaluatesLikeParent(t *testing.T) {
	g := mustParse(t, "model=4B;method=baseline,vocab-1,vocab-2;vocab=32k;micro=8")
	cells := g.Expand()
	full := Run(g, Options{}).Records()
	for _, r := range SplitCells(len(cells), 2) {
		sub := Subgrid(g, cells, r)
		got := Run(sub, Options{}).Records()
		for i, rec := range got {
			if rec != full[r.Start+i] {
				t.Errorf("shard %v record %d = %+v, want %+v", r, i, rec, full[r.Start+i])
			}
		}
	}
}

func TestMergeShardRecords(t *testing.T) {
	rec := func(label string) report.Record { return report.Record{Label: label} }
	ranges := []Range{{0, 2}, {2, 3}}
	shards := [][]report.Record{{rec("a"), rec("b")}, {rec("c")}}
	got, err := MergeShardRecords(3, ranges, shards)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"a", "b", "c"} {
		if got[i].Label != want {
			t.Errorf("merged[%d] = %q, want %q", i, got[i].Label, want)
		}
	}

	fails := []struct {
		name   string
		n      int
		ranges []Range
		shards [][]report.Record
	}{
		{"count mismatch", 3, []Range{{0, 2}}, [][]report.Record{{rec("a")}, {rec("b")}}},
		{"shard wrong length", 3, ranges, [][]report.Record{{rec("a")}, {rec("c")}}},
		{"hole", 3, []Range{{0, 1}, {2, 3}}, [][]report.Record{{rec("a")}, {rec("c")}}},
		{"overlap", 3, []Range{{0, 2}, {1, 2}}, [][]report.Record{{rec("a"), rec("b")}, {rec("b")}}},
		{"out of bounds", 2, []Range{{0, 3}}, [][]report.Record{{rec("a"), rec("b"), rec("c")}}},
	}
	for _, tt := range fails {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := MergeShardRecords(tt.n, tt.ranges, tt.shards); err == nil {
				t.Error("want merge error, got nil")
			}
		})
	}
}

func mustParse(t *testing.T, spec string) *Grid {
	t.Helper()
	g, err := ParseGrid(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestKeyDistinguishesCustomLabeledCells regression-tests the cache-key
// collision the tuner's candidate cells can hit: their labels
// ("d8/m32/baseline") omit model and sequence length, so the key must
// fingerprint the full configuration — two searches over different specs
// must never share a worker's shard-cache entry.
func TestKeyDistinguishesCustomLabeledCells(t *testing.T) {
	mk := func(model string, seq int) *Grid {
		cfg, ok := costmodel.ConfigByName(model)
		if !ok {
			t.Fatalf("no %s in the zoo", model)
		}
		cfg = cfg.WithSeq(seq).WithVocab(32 * 1024)
		cfg.Devices, cfg.NumMicro = 8, 32
		return &Grid{Name: "tune/custom", Cells: []Cell{
			{Label: "d8/m32/baseline", Config: cfg, Method: sim.Baseline},
		}}
	}
	base := mk("4B", 2048).Key()
	if k := mk("4B", 8192).Key(); k == base {
		t.Errorf("keys collide across sequence lengths: %q", k)
	}
	if k := mk("10B", 2048).Key(); k == base {
		t.Errorf("keys collide across models: %q", k)
	}
	if k := mk("4B", 2048).Key(); k != base {
		t.Errorf("identical specs disagree on key: %q vs %q", k, base)
	}
	// Method must be part of the identity too, independent of the label.
	g := mk("4B", 2048)
	g.Cells[0].Method = sim.Vocab1
	if g.Key() == base {
		t.Error("keys collide across methods with identical labels")
	}
}
