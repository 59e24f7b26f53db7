package api

// POST /v1/ingest is the daemon's streaming face: one request draws a
// deterministic evolution batch from the served world (link churn,
// depeerings, new peerings, AS arrivals, IXP joins), mirrors it onto
// every layer of the pipeline (BGP topology, scoped route-cache
// invalidation, address plan, hitlist, evidence epoch), refreshes the
// public view with a round of post-churn traceroutes, and re-scores
// every served metro incrementally — warm ALS factors, no rank sweep,
// no tune grid — before swapping in a new serving State at the next
// epoch. Readers keep the old snapshot until their request returns.
//
// Ingest mutates the world in place, which asynchronous runs read
// without holding the world lock for their whole lifetime; the endpoint
// therefore refuses with 409 Conflict while any run is active, and new
// submissions queue behind the write lock for the (short) duration of
// the mutation.

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"

	"metascritic"
	"metascritic/internal/netsim"
)

// ingestRequest is the POST /v1/ingest body. The event counts are
// targets, clamped to the world's candidate pools (netsim.EvolveSpec);
// at least one must be positive.
type ingestRequest struct {
	// Seed drives the evolution draw and the post-churn trace sample.
	// Equal worlds + equal ingest sequences give byte-identical states.
	Seed       int64 `json:"seed"`
	LinkDowns  int   `json:"link_downs"`
	Depeerings int   `json:"depeerings"`
	LinkUps    int   `json:"link_ups"`
	NewASes    int   `json:"new_ases"`
	IXPJoins   int   `json:"ixp_joins"`
	// TracesPerProbe sizes the post-churn public-view refresh (default 4;
	// 0 is valid and skips the refresh; at most maxTracesPerProbe).
	TracesPerProbe *int `json:"traces_per_probe"`
}

// maxTracesPerProbe caps traces_per_probe. The refresh runs after the
// world has evolved, under the write lock, and sizes its trace list by
// probes × traces_per_probe: an unbounded value would hold the lock for
// hours or panic mid-ingest, leaving the world an epoch ahead of the
// served State.
const maxTracesPerProbe = 64

// ingestResponse reports what absorbing the batch did.
type ingestResponse struct {
	// Epoch is the world epoch after the batch; SnapshotSeq the serving
	// snapshot that now reflects it.
	Epoch       uint32 `json:"epoch"`
	SnapshotSeq int64  `json:"snapshot_seq"`
	Events      int    `json:"events"`
	NewASes     int    `json:"new_ases"`
	// Invalidated/Retained are this batch's route-cache eviction split
	// (Retained is 0 when an AS arrival forced a full invalidation).
	Invalidated  int `json:"invalidated"`
	Retained     int `json:"retained"`
	NewAddresses int `json:"new_addresses"`
	// Traces is the number of post-churn public traceroutes absorbed.
	Traces int `json:"traces"`
	// Rescored lists the metros re-scored incrementally, by name.
	Rescored []string `json:"rescored"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	for _, c := range []int{req.LinkDowns, req.Depeerings, req.LinkUps, req.NewASes, req.IXPJoins} {
		if c < 0 {
			writeError(w, http.StatusBadRequest, "event counts must be non-negative")
			return
		}
	}
	if req.LinkDowns+req.Depeerings+req.LinkUps+req.NewASes+req.IXPJoins == 0 {
		writeError(w, http.StatusBadRequest, "empty evolution spec: at least one event count must be positive")
		return
	}
	traces := 4
	if req.TracesPerProbe != nil {
		if *req.TracesPerProbe < 0 || *req.TracesPerProbe > maxTracesPerProbe {
			writeError(w, http.StatusBadRequest, "traces_per_probe must be in [0, %d]", maxTracesPerProbe)
			return
		}
		traces = *req.TracesPerProbe
	}

	s.worldMu.Lock()
	defer s.worldMu.Unlock()
	if n := s.runs.Active(); n > 0 {
		writeError(w, http.StatusConflict,
			"%d run(s) active: ingest mutates the world in place; retry once they finish", n)
		return
	}

	p := s.eng.Pipeline()
	rng := rand.New(rand.NewSource(req.Seed))
	_, est, err := p.Evolve(rng, netsim.EvolveSpec{
		LinkDowns:  req.LinkDowns,
		Depeerings: req.Depeerings,
		LinkUps:    req.LinkUps,
		NewASes:    req.NewASes,
		IXPJoins:   req.IXPJoins,
	})
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	nTraces := 0
	if traces > 0 {
		nTraces = p.SeedPublicMeasurements(traces, rng)
	}

	// Re-score the served metros from the accumulated evidence. No run is
	// active and submissions are blocked on the world lock, so the current
	// state cannot change underneath the merge. The rescore runs on a
	// background context: a client hanging up must not abort a mutation
	// that is already half mirrored.
	cur := s.State()
	merged := make(map[int]*metascritic.Result, len(cur.Results))
	for m, res := range cur.Results {
		merged[m] = res
	}
	g := p.World.G
	rescored := []string{}
	var rescoreErr error
	for _, m := range cur.ServedMetros() {
		res, err := p.Rescore(context.Background(), cur.Results[m], s.opts.Base)
		if err != nil {
			rescoreErr = err
			break
		}
		merged[m] = res
		rescored = append(rescored, g.Metros[m].Name)
	}

	// Commit even when a rescore failed: the world has already evolved,
	// and a state at the new epoch (with the old results where the
	// rescore did not land) is strictly better than one frozen behind it.
	s.commitMu.Lock()
	next := NewState(cur.Seq+1, cur.WorldCfg, p, merged)
	s.state.Store(next)
	s.commitMu.Unlock()

	s.ingestBatches.Add(1)
	s.ingestEvents.Add(int64(est.Events))
	s.ingestNewASes.Add(int64(est.NewASes))
	s.ingestTraces.Add(int64(nTraces))
	s.ingestRescores.Add(int64(len(rescored)))
	last := est
	s.lastIngest.Store(&last)

	if rescoreErr != nil {
		writeError(w, http.StatusInternalServerError,
			"batch absorbed (epoch %d) but rescore failed after %d metro(s): %v", est.Epoch, len(rescored), rescoreErr)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{
		Epoch:        est.Epoch,
		SnapshotSeq:  next.Seq,
		Events:       est.Events,
		NewASes:      est.NewASes,
		Invalidated:  est.Invalidated,
		Retained:     est.Retained,
		NewAddresses: est.NewAddresses,
		Traces:       nTraces,
		Rescored:     rescored,
	})
}
