package step

import (
	"flag"

	"dasc/internal/core"
)

// EngineOptions are the candidate-engine and game-engine knobs. They are
// declared once here and embedded in sim.Config and server.Config, so the
// promoted field names (cfg.VerifyEngineCache, ...) mean the same thing on
// both platforms.
type EngineOptions struct {
	// DisableEngineCache rebuilds every batch's candidate engine from
	// scratch instead of carrying it across batches incrementally
	// (core.EngineCache). The two builds agree exactly; the flag exists for
	// A/B benchmarks and debugging.
	DisableEngineCache bool
	// VerifyEngineCache cross-checks the incrementally maintained candidate
	// engine against a from-scratch build every batch and fails the batch
	// on divergence. Differential-testing hook; expensive.
	VerifyEngineCache bool
	// DisableGameWorklist runs DASC_Game allocators with the naive full
	// best-response sweep instead of the incremental worklist engine — the
	// game-side analogue of DisableEngineCache. Ignored for non-game
	// allocators.
	DisableGameWorklist bool
	// VerifyGameWorklist cross-checks the worklist engine against the naive
	// sweep every batch (identical assignments, rounds, update ratios) and
	// fails the batch on divergence. Ignored for non-game allocators.
	VerifyGameWorklist bool
}

// Allocator returns a with the options applied: the naive sweep for a
// DASC_Game allocator under DisableGameWorklist, a itself otherwise.
func (o EngineOptions) Allocator(a core.Allocator) core.Allocator {
	if g, ok := a.(*core.Game); ok && o.DisableGameWorklist {
		return g.WithWorklistDisabled(true)
	}
	return a
}

// RegisterFlags declares the game-engine knobs as command-line flags.
func (o *EngineOptions) RegisterFlags(fs *flag.FlagSet) {
	fs.BoolVar(&o.DisableGameWorklist, "no-game-worklist", false, "run game allocators with the naive full best-response sweep instead of the incremental worklist engine")
	fs.BoolVar(&o.VerifyGameWorklist, "verify-game-worklist", false, "cross-check the game worklist engine against the naive sweep every batch (differential mode; slow)")
}
