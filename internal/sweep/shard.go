// Sharding helpers: splitting a grid's expansion order into contiguous cell
// ranges and merging per-shard records back together. This is the substrate
// internal/cluster uses to fan a grid out across worker vpserve instances
// while keeping the merged output byte-identical to a single-node run — the
// ranges partition the deterministic expansion order, so reassembly is pure
// index arithmetic with no reordering.
package sweep

import (
	"fmt"

	"vocabpipe/internal/report"
)

// Range is a half-open [Start, End) slice of a grid's expansion order.
type Range struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Len returns the number of cells in the range.
func (r Range) Len() int { return r.End - r.Start }

// SplitCells partitions n cells into at most parts contiguous ranges of
// near-equal size (sizes differ by at most one, larger shards first), in
// ascending order. parts < 1 is treated as 1; n < parts yields n single-cell
// ranges; n == 0 yields nil.
func SplitCells(n, parts int) []Range {
	if n <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([]Range, 0, parts)
	base, extra := n/parts, n%parts
	start := 0
	for i := 0; i < parts; i++ {
		size := base
		if i < extra {
			size++
		}
		out = append(out, Range{Start: start, End: start + size})
		start += size
	}
	return out
}

// Shardable reports whether the grid can be evaluated by a remote worker:
// every cell must be fully described by (label, config, method), so grids
// with custom cell Eval functions — closures that cannot cross the wire —
// are not shardable and must be evaluated locally.
func Shardable(g *Grid) bool {
	for i := range g.Cells {
		if g.Cells[i].Eval != nil {
			return false
		}
	}
	return true
}

// Subgrid returns a grid named like g holding cells[r.Start:r.End] verbatim
// — the unit of work one worker evaluates. cells must be g's full expansion
// (callers already hold it; re-expanding here would repeat the cross
// product per shard).
func Subgrid(g *Grid, cells []Cell, r Range) *Grid {
	return &Grid{Name: g.Name, Cells: cells[r.Start:r.End], KeepTimelines: g.KeepTimelines}
}

// MergeShardRecords reassembles per-shard record slices into full expansion
// order. ranges[i] says where shards[i] belongs; together the ranges must
// tile [0, n) exactly and each shard must carry exactly its range's record
// count, otherwise the merge fails rather than return a silently misaligned
// table.
func MergeShardRecords(n int, ranges []Range, shards [][]report.Record) ([]report.Record, error) {
	if len(ranges) != len(shards) {
		return nil, fmt.Errorf("sweep: merge: %d ranges but %d shards", len(ranges), len(shards))
	}
	out := make([]report.Record, n)
	covered := 0
	for i, r := range ranges {
		if r.Start < 0 || r.End > n || r.Start > r.End {
			return nil, fmt.Errorf("sweep: merge: range %d [%d,%d) out of bounds [0,%d)", i, r.Start, r.End, n)
		}
		if len(shards[i]) != r.Len() {
			return nil, fmt.Errorf("sweep: merge: shard %d has %d records for range [%d,%d)", i, len(shards[i]), r.Start, r.End)
		}
		copy(out[r.Start:r.End], shards[i])
		covered += r.Len()
	}
	if covered != n {
		return nil, fmt.Errorf("sweep: merge: ranges cover %d of %d cells", covered, n)
	}
	// covered == n plus in-bounds ranges still admits overlaps (one cell
	// counted twice, another missed); detect them by marking.
	seen := make([]bool, n)
	for _, r := range ranges {
		for i := r.Start; i < r.End; i++ {
			if seen[i] {
				return nil, fmt.Errorf("sweep: merge: cell %d covered twice", i)
			}
			seen[i] = true
		}
	}
	return out, nil
}
