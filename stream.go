package metascritic

// Streaming topology support: a pipeline built over a world at epoch e can
// absorb an evolution batch (netsim.World.Evolve / Apply) and keep serving
// without being rebuilt. ApplyEvolution mirrors the batch onto every layer
// the pipeline owns — the BGP topology and route cache, the address plan,
// the probe hitlist and the observation store's evidence epoch — after
// which Rescore re-derives a metro's result from the accumulated evidence
// at a fraction of a full run's cost. Rescore is Run's metro pass (run.go)
// without its measurement, rank-sweep and tuning steps: the same prologue
// and completion tail, with the ALS warm-started from the previous factors.

import (
	"context"
	"fmt"
	"math/rand"

	"metascritic/internal/als"
	"metascritic/internal/netsim"
)

// EvolutionStats summarizes what absorbing one batch did to the pipeline.
type EvolutionStats struct {
	// Epoch is the world (and evidence) epoch after the batch.
	Epoch uint32
	// Events is the number of events in the batch.
	Events int
	// NewASes is the number of AS arrivals in the batch.
	NewASes int
	// Invalidated is the number of cached route views dropped; Retained is
	// the number that survived the scoped invalidation (0 when the AS index
	// space grew and the whole cache had to go).
	Invalidated int
	Retained    int
	// NewAddresses is the number of interface/IXP-LAN addresses the
	// registry allocated for new presences.
	NewAddresses int
}

// Evolve draws an evolution batch from the pipeline's world (consuming
// rng exactly like netsim.World.Evolve), applies it to the world, and
// mirrors it onto the pipeline. It is the one-call form of
// World.Evolve + ApplyEvolution.
func (p *Pipeline) Evolve(rng *rand.Rand, spec netsim.EvolveSpec) (*netsim.EventBatch, EvolutionStats, error) {
	batch, err := p.World.Evolve(rng, spec)
	if err != nil {
		return nil, EvolutionStats{}, err
	}
	st, err := p.ApplyEvolution(batch)
	return batch, st, err
}

// ApplyEvolution mirrors an already-applied evolution batch onto the
// pipeline's derived state. The world must be at the batch's epoch (the
// caller ran World.Evolve, or replayed the batch with World.Apply); the
// graph the observation store shares with the world is therefore already
// mutated, and this call brings the rest of the pipeline up to date:
//
//   - the traceroute engine's BGP topology absorbs the link churn in
//     place (grown first when ASes arrived);
//   - the route cache drops exactly the destinations the batch can have
//     re-routed (scoped invalidation; everything after an arrival);
//   - the address registry extends to new presences without renumbering;
//   - newly arrived responsive ASes join the hitlist;
//   - the observation store advances its evidence epoch, so records that
//     stop being re-observed age toward demotion.
//
// It must not run concurrently with traceroute simulation or estimation
// (the serving layer holds its world lock across the call).
func (p *Pipeline) ApplyEvolution(batch *netsim.EventBatch) (EvolutionStats, error) {
	w := p.World
	if w.Epoch != batch.Epoch {
		return EvolutionStats{}, fmt.Errorf("metascritic: %w: world is at epoch %d, batch is for epoch %d (apply the batch to the world first)",
			ErrInvalidConfig, w.Epoch, batch.Epoch)
	}
	topo := p.Engine.Cache.Topology()
	oldN := topo.N()
	grew := w.G.N() > oldN
	if grew {
		topo.Grow(w.G.N())
	}

	nextNew := oldN
	for _, ev := range batch.Events {
		switch ev.Kind {
		case netsim.LinkDown:
			// Only the pair's last interconnection removes the AS-level
			// link; the post-apply relationship map is the arbiter.
			if _, still := w.RelOf(ev.A, ev.B); !still {
				topo.RemoveP2P(ev.A, ev.B)
			}
		case netsim.Depeer:
			topo.RemoveP2P(ev.A, ev.B)
		case netsim.LinkUp:
			// A LinkUp can add metros to a link that already exists (or
			// that an earlier event in this batch created); the AS-level
			// topology is metro-blind, so only the first materialization
			// counts.
			if !topo.HasP2P(ev.A, ev.B) {
				topo.AddP2P(ev.A, ev.B)
			}
		case netsim.NewASArrival:
			// Arrivals were assigned indices sequentially in event order.
			idx := nextNew
			nextNew++
			for _, prov := range ev.New.Providers {
				topo.AddC2P(idx, prov)
			}
		case netsim.IXPJoin:
			// Route-server peerings arrive as explicit LinkUp events; the
			// membership itself does not change AS-level routing.
		}
	}
	if nextNew != w.G.N() {
		return EvolutionStats{}, fmt.Errorf("metascritic: ApplyEvolution: batch carries %d arrivals but the world grew by %d ASes (batch already applied elsewhere?)",
			nextNew-oldN, w.G.N()-oldN)
	}

	st := EvolutionStats{
		Epoch:   batch.Epoch,
		Events:  len(batch.Events),
		NewASes: nextNew - oldN,
	}
	if grew {
		st.Invalidated = p.Engine.Cache.InvalidateAll()
	} else {
		before := p.Engine.Cache.Stats().Retained
		st.Invalidated = p.Engine.Cache.Invalidate(batch.TouchedLinks())
		st.Retained = int(p.Engine.Cache.Stats().Retained - before)
	}
	st.NewAddresses = p.Engine.Reg.Extend()
	for i := oldN; i < w.G.N(); i++ {
		if w.Responsive[i] {
			p.Hitlist = append(p.Hitlist, i)
		}
	}
	p.Store.AdvanceEpoch()
	return st, nil
}

// Rescore re-derives a metro's result from the evidence accumulated so
// far, reusing the warm state of a previous full run: prev's rank and
// tuned hyperparameters stand in for the rank loop and the tune grid,
// prev's ALS factors warm-start the completion, and no measurements are
// issued. After ApplyEvolution and a round of post-churn traces, the
// estimate it returns is byte-identical to what a cold full rerun over
// the same store would measure (obs.Store.Estimate is a pure function of
// the store); the ratings are not, as the completion is warm-started.
//
// Only cfg.NegPolicy, cfg.MaxMetroMembers, cfg.Rank.Iterations, cfg.Seed
// and the validation rules are consulted. The member list is re-read from
// the graph and pruned like Run's, so ASes that arrived since prev are
// scored too (a changed member set makes prev's factors incompatible, and
// the completion falls back to a cold start — still without rank sweep or
// tuning).
func (p *Pipeline) Rescore(ctx context.Context, prev *Result, cfg Config) (*Result, error) {
	if prev.Ratings == nil || prev.Rank <= 0 {
		return nil, fmt.Errorf("metascritic: %w: Rescore needs a completed previous result for metro %d", ErrInvalidConfig, prev.Metro)
	}
	ps, err := p.startPass(ctx, prev.Metro, cfg, "rescore")
	if err != nil {
		return nil, err
	}
	ps.res.Rank, ps.res.Estimate = prev.Rank, ps.est
	return p.finish(ctx, ps, als.Options{Rank: prev.Rank, Lambda: prev.Lambda, FeatureWeight: prev.FeatureWeight}, false, prev.Factors)
}
