// Bridging the planner onto the async job queue: one adapter shared by the
// vpserve HTTP API (POST /api/v1/optimize) and `vpbench -tune`, so both
// surfaces run the identical search lifecycle by construction.
package tune

import (
	"context"

	"vocabpipe/internal/jobs"
)

// JobFunc wraps a search as a jobs.Func: progress snapshots carry the
// best-so-far candidate label as the note, and a successful job's result is
// the *Result. The search honors the job's context, so queue cancellation
// stops it at the next candidate boundary. opt.OnProgress is overwritten by
// the queue's own progress reporting; the other fields (Parallel, Eval —
// e.g. a cluster dispatcher's remote evaluator) pass through.
func JobFunc(spec *Spec, strategy Strategy, opt Options) jobs.Func {
	return func(ctx context.Context, report func(jobs.Progress)) (any, error) {
		opt.OnProgress = func(p Progress) {
			report(jobs.Progress{Done: p.Done, Total: p.Total, Note: p.BestLabel})
		}
		res, err := Search(ctx, spec, strategy, opt)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
}
