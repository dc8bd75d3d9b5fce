// The shard wire format: what a coordinator POSTs to a worker's /api/v1/shard.
// Cells travel fully materialized (label + config + method name) rather
// than as a grid spec, so any shardable grid — named experiments, parsed
// specs, tuner candidate batches — uses one protocol and the worker needs
// no re-expansion to agree with the coordinator about what the cells are.
// It does check each cell's model shape against the zoo, because the body
// comes from any client that can reach the worker. The answer is the
// shard's report.Records, one per cell in order, each carrying its cell's
// label and the grid's name as its experiment; the coordinator refuses
// any other answer, because any process can join its pool.
package cluster

import (
	"fmt"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/sweep"
)

// WireCell is one serialized sweep cell. The method travels by name (its
// String() form) so the wire stays readable and robust against enum
// reordering across versions.
type WireCell struct {
	Label  string           `json:"label"`
	Config costmodel.Config `json:"config"`
	Method string           `json:"method"`
}

// ShardRequest is the POST /api/v1/shard body: a contiguous slice of a grid's
// expansion order. Grid names the owning grid (it becomes the records'
// experiment column, keeping shard output identical to a single-node run);
// Range records where the cells sit in the full expansion, for diagnostics
// and log correlation — the cells themselves are authoritative.
type ShardRequest struct {
	Grid  string      `json:"grid"`
	Range sweep.Range `json:"range"`
	Cells []WireCell  `json:"cells"`
}

// NewShardRequest serializes cells[r.Start:r.End] of g's expansion.
func NewShardRequest(g *sweep.Grid, cells []sweep.Cell, r sweep.Range) ShardRequest {
	req := ShardRequest{Grid: g.Name, Range: r, Cells: make([]WireCell, 0, r.Len())}
	for _, c := range cells[r.Start:r.End] {
		req.Cells = append(req.Cells, WireCell{Label: c.Label, Config: c.Config, Method: c.Method.String()})
	}
	return req
}

// ToGrid reconstructs the sub-grid a worker evaluates. Every cell must
// carry a label, a known method name and a zoo model's shape: its name, and
// that model's layers, heads, hidden size and microbatch size. A
// coordinator's cells all derive from a zoo model, overriding at most the
// sequence length, vocabulary, microbatch count and device count, so this
// refuses only hand-made bodies — such as a 1,024-layer "4B", which would
// let a layout place 1,024 pipeline stages. The grid's canonical Key() then
// serves as the worker-side cache key, so identical shards from any
// coordinator coalesce.
func (r *ShardRequest) ToGrid() (*sweep.Grid, error) {
	if len(r.Cells) == 0 {
		return nil, fmt.Errorf("cluster: shard request has no cells")
	}
	if r.Range.Len() != len(r.Cells) {
		return nil, fmt.Errorf("cluster: shard range [%d,%d) does not match %d cells", r.Range.Start, r.Range.End, len(r.Cells))
	}
	g := &sweep.Grid{Name: r.Grid}
	if g.Name == "" {
		g.Name = "shard"
	}
	for i, wc := range r.Cells {
		if wc.Label == "" {
			return nil, fmt.Errorf("cluster: shard cell %d has no label", i)
		}
		m, ok := sim.MethodByName(wc.Method)
		if !ok {
			return nil, fmt.Errorf("cluster: shard cell %q has unknown method %q", wc.Label, wc.Method)
		}
		c := wc.Config
		z, ok := costmodel.ConfigByName(c.Name)
		if !ok {
			return nil, fmt.Errorf("cluster: shard cell %q has unknown model %q", wc.Label, c.Name)
		}
		if c.Layers != z.Layers || c.Heads != z.Heads || c.Hidden != z.Hidden || c.MicroBatch != z.MicroBatch {
			return nil, fmt.Errorf("cluster: shard cell %q is not model %s's shape (layers %d, heads %d, hidden %d, microbatch %d)",
				wc.Label, z.Name, z.Layers, z.Heads, z.Hidden, z.MicroBatch)
		}
		g.Cells = append(g.Cells, sweep.Cell{Label: wc.Label, Config: wc.Config, Method: m})
	}
	return g, nil
}
