// Package api is metascriticd's versioned HTTP/JSON surface over the
// metAScritic engine. Readers serve from an atomically-swapped immutable
// State (a copy-on-write store snapshot plus frozen results) and wait
// only while an ingest holds the world write lock; POST /v1/runs
// schedules asynchronous engine batches whose results are committed by
// swapping in a new State. See DESIGN.md §8 for the concurrency story and
// the snapshot artifact format.
//
// v1 endpoints:
//
//	GET  /v1/estimate/{metro}/{a}/{b}   estimated connectivity for an AS pair
//	GET  /v1/peers/{metro}/{as}?k=N    top-K likely peers of an AS
//	GET  /v1/consistency/{metro}       routing-consistency report (Appx. D.5)
//	GET  /v1/hijack/{victim}/{attacker}?thr=λ  §6 hijack blast-radius forensics
//	POST /v1/runs                      submit an asynchronous run
//	GET  /v1/runs                      list runs
//	GET  /v1/runs/{id}                 poll one run
//	POST /v1/ingest                    absorb topology churn and re-score (streaming)
//	GET  /admin/stats                  engine + route-cache statistics
//	GET  /healthz                      liveness
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"metascritic"
	"metascritic/internal/engine"
	"metascritic/internal/forensics"
	"metascritic/internal/sysmem"
)

// Options configures a Server.
type Options struct {
	// WorldCfg is the generation config of the served world (persisted
	// into snapshots).
	WorldCfg metascritic.WorldConfig
	// Base is the pipeline config template for submitted runs.
	Base metascritic.Config
	// MaxRunBudget caps the per-run measurement budget a client may
	// request; 0 means no cap. Requests above the cap are rejected with
	// 422 (the serving-layer face of ErrBudgetExhausted).
	MaxRunBudget int
	// RateLimit/RateBurst configure the per-client token bucket; zero
	// values disable rate limiting.
	RateLimit float64
	RateBurst float64
}

// Server owns the serving state and the run manager. Construct with
// NewServer; Handler returns the routed (and middleware-wrapped) handler.
type Server struct {
	opts  Options
	eng   *engine.Engine
	runs  *engine.RunManager
	state atomic.Pointer[State]

	commitMu sync.Mutex // serializes Commit's read-modify-swap
	start    time.Time
	requests atomic.Int64
	lastRun  atomic.Pointer[engine.RunStats]

	// worldMu is the streaming seam: ingest mutates the world (and the
	// shared route cache, registry and base store) in place, so it takes
	// the write side while every handler that reads world-derived state
	// holds the read side. Run execution is not covered by the lock —
	// ingest instead refuses (409) while runs are active, and new
	// submissions block on the read lock for the duration of an ingest.
	worldMu sync.RWMutex

	// Ingest counters (epoch-advancing batches absorbed since boot).
	ingestBatches  atomic.Int64
	ingestEvents   atomic.Int64
	ingestNewASes  atomic.Int64
	ingestTraces   atomic.Int64
	ingestRescores atomic.Int64
	lastIngest     atomic.Pointer[metascritic.EvolutionStats]
}

// NewServer builds a server over a pipeline and initial result set. The
// pipeline's store must not be mutated after this call: every State
// snapshots it copy-on-write.
func NewServer(p *metascritic.Pipeline, results map[int]*metascritic.Result, opts Options) *Server {
	s := &Server{opts: opts, eng: engine.New(p), start: time.Now()}
	if results == nil {
		results = map[int]*metascritic.Result{}
	}
	s.state.Store(NewState(1, opts.WorldCfg, p, results))
	s.runs = engine.NewRunManager(s.eng, s.commit)
	return s
}

// State returns the current serving snapshot.
func (s *Server) State() *State { return s.state.Load() }

// Runs exposes the run manager (the daemon drains it on shutdown).
func (s *Server) Runs() *engine.RunManager { return s.runs }

// commit merges a finished batch into a fresh State and swaps it in.
// Readers keep the old snapshot until their request completes.
func (s *Server) commit(id string, mr *engine.MultiResult) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	cur := s.state.Load()
	merged := make(map[int]*metascritic.Result, len(cur.Results)+len(mr.Results))
	for m, r := range cur.Results {
		merged[m] = r
	}
	for m, r := range mr.Results {
		merged[m] = r
	}
	st := mr.Stats
	s.lastRun.Store(&st)
	s.state.Store(NewState(cur.Seq+1, cur.WorldCfg, cur.Pipe, merged))
}

// Handler returns the fully-wired handler: the routes, behind the rate
// limiter when Options.RateLimit is set.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /v1/estimate/{metro}/{a}/{b}", s.handleEstimate)
	mux.HandleFunc("GET /v1/peers/{metro}/{as}", s.handlePeers)
	mux.HandleFunc("GET /v1/consistency/{metro}", s.handleConsistency)
	mux.HandleFunc("GET /v1/hijack/{victim}/{attacker}", s.handleHijack)
	mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	mux.HandleFunc("GET /v1/runs", s.handleListRuns)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleRunStatus)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("GET /admin/stats", s.handleStats)

	var h http.Handler = mux
	if s.opts.RateLimit > 0 {
		h = NewRateLimiter(s.opts.RateLimit, s.opts.RateBurst).Wrap(h)
	}
	counted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		h.ServeHTTP(w, r)
	})
	return counted
}

// --- helpers ---

// writeJSON encodes v before it commits the status, so a value that
// cannot be encoded (a NaN, say) answers 500 with an error body rather
// than a 200 with an empty one.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": "encoding the response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeBody decodes a POST body of at most 1 MiB holding exactly one JSON
// value with only known fields into v. Anything else — trailing bytes
// after the value included — is answered 400, and it reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// metroResult resolves a metro path element that must have a served
// result, writing the error response itself when it cannot.
func (s *Server) metroResult(w http.ResponseWriter, st *State, name string) (*metascritic.Result, bool) {
	m := st.Metro(name)
	if m == nil {
		writeError(w, http.StatusNotFound, "unknown metro %q", name)
		return nil, false
	}
	res := st.Results[m.Index]
	if res == nil {
		writeError(w, http.StatusNotFound, "metro %s has no committed run yet", m.Name)
		return nil, false
	}
	return res, true
}

func atoiParam(w http.ResponseWriter, r *http.Request, name string) (int, bool) {
	v, err := strconv.Atoi(r.PathValue(name))
	if err != nil {
		writeError(w, http.StatusBadRequest, "path element %q must be an integer, got %q", name, r.PathValue(name))
		return 0, false
	}
	return v, true
}

// --- v1 handlers ---

type estimateResponse struct {
	Metro string `json:"metro"`
	A     int    `json:"a"`
	B     int    `json:"b"`
	// Observed is true when E_m has direct or transferred evidence for
	// the pair; Evidence is that entry of E_m (weighted, in [-1,1]).
	Observed bool    `json:"observed"`
	Evidence float64 `json:"evidence"`
	// Rating is the completed matrix entry C_m[a,b] in [-1,1].
	Rating float64 `json:"rating"`
	// Link is the final verdict at the run's threshold λ.
	Link      bool    `json:"link"`
	Threshold float64 `json:"threshold"`
	// Measured marks pairs whose link status was directly observed.
	Measured bool `json:"measured"`
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	s.worldMu.RLock()
	defer s.worldMu.RUnlock()
	st := s.State()
	res, ok := s.metroResult(w, st, r.PathValue("metro"))
	if !ok {
		return
	}
	a, ok := atoiParam(w, r, "a")
	if !ok {
		return
	}
	b, ok := atoiParam(w, r, "b")
	if !ok {
		return
	}
	ai, aok := st.ASIndex(a)
	bi, bok := st.ASIndex(b)
	if !aok || !bok {
		writeError(w, http.StatusNotFound, "unknown ASN %d", pick(!aok, a, b))
		return
	}
	i, iok := res.Estimate.Index[ai]
	j, jok := res.Estimate.Index[bi]
	if !iok || !jok {
		writeError(w, http.StatusNotFound, "AS%d is not a member of metro %s", pick(!iok, a, b), r.PathValue("metro"))
		return
	}
	if i == j {
		writeError(w, http.StatusBadRequest, "asked for the self-pair of AS%d", a)
		return
	}
	ev, observed := res.Estimate.Value(ai, bi)
	rating := res.Ratings.At(i, j)
	out := estimateResponse{
		Metro:     st.Metro(r.PathValue("metro")).Name,
		A:         a,
		B:         b,
		Observed:  observed,
		Evidence:  ev,
		Rating:    rating,
		Threshold: res.Threshold,
		Measured:  observed && ev > 0,
	}
	out.Link = out.Measured || (!observed && rating >= res.Threshold)
	writeJSON(w, http.StatusOK, out)
}

func pick(first bool, a, b int) int {
	if first {
		return a
	}
	return b
}

type peerEntry struct {
	ASN      int     `json:"asn"`
	Score    float64 `json:"score"`
	Measured bool    `json:"measured"`
	Link     bool    `json:"link"`
}

type peersResponse struct {
	Metro     string      `json:"metro"`
	ASN       int         `json:"asn"`
	K         int         `json:"k"`
	Threshold float64     `json:"threshold"`
	Peers     []peerEntry `json:"peers"`
}

func (s *Server) handlePeers(w http.ResponseWriter, r *http.Request) {
	s.worldMu.RLock()
	defer s.worldMu.RUnlock()
	st := s.State()
	res, ok := s.metroResult(w, st, r.PathValue("metro"))
	if !ok {
		return
	}
	asn, ok := atoiParam(w, r, "as")
	if !ok {
		return
	}
	ai, aok := st.ASIndex(asn)
	if !aok {
		writeError(w, http.StatusNotFound, "unknown ASN %d", asn)
		return
	}
	i, iok := res.Estimate.Index[ai]
	if !iok {
		writeError(w, http.StatusNotFound, "AS%d is not a member of metro %s", asn, r.PathValue("metro"))
		return
	}
	k := 10
	if kq := r.URL.Query().Get("k"); kq != "" {
		v, err := strconv.Atoi(kq)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, "k must be a positive integer, got %q", kq)
			return
		}
		k = v
	}
	if k > 200 {
		k = 200
	}

	// Row i of E is walked alongside the members (E's support is the
	// mask, so a stored cell is an observed pair), and only the best k
	// entries are kept, in response order: score descending, then ASN.
	g := st.Pipe.World.G
	cols, vals := res.Estimate.E.Row(i)
	peers := make([]peerEntry, 0, min(k, len(res.Members)-1))
	for j, bj := range res.Members {
		if j == i {
			continue
		}
		e := peerEntry{ASN: g.ASes[bj].ASN}
		for len(cols) > 0 && int(cols[0]) < j {
			cols, vals = cols[1:], vals[1:]
		}
		if len(cols) > 0 && int(cols[0]) == j {
			e.Measured = true
			e.Link = vals[0] > 0
			e.Score = 1
			if vals[0] <= 0 {
				e.Score = 0 // measured non-link: certain, but not a peer
			}
		} else {
			e.Score = res.Ratings.At(i, j)
			e.Link = e.Score >= res.Threshold
		}
		if len(peers) == k && !peerBefore(e, peers[k-1]) {
			continue
		}
		pos := sort.Search(len(peers), func(x int) bool { return peerBefore(e, peers[x]) })
		if len(peers) < k {
			peers = append(peers, peerEntry{})
		}
		copy(peers[pos+1:], peers[pos:])
		peers[pos] = e
	}
	writeJSON(w, http.StatusOK, peersResponse{
		Metro:     st.Metro(r.PathValue("metro")).Name,
		ASN:       asn,
		K:         k,
		Threshold: res.Threshold,
		Peers:     peers,
	})
}

// peerBefore reports whether a precedes b in a peers response: higher
// score first, then lower ASN.
func peerBefore(a, b peerEntry) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ASN < b.ASN
}

func (s *Server) handleConsistency(w http.ResponseWriter, r *http.Request) {
	s.worldMu.RLock()
	defer s.worldMu.RUnlock()
	st := s.State()
	m := st.Metro(r.PathValue("metro"))
	if m == nil {
		writeError(w, http.StatusNotFound, "unknown metro %q", r.PathValue("metro"))
		return
	}
	rep := st.Consistency(m.Index)
	if rep == nil {
		writeError(w, http.StatusNotFound, "metro %s has no committed run yet", m.Name)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleHijack(w http.ResponseWriter, r *http.Request) {
	s.worldMu.RLock()
	defer s.worldMu.RUnlock()
	st := s.State()
	vm := st.Metro(r.PathValue("victim"))
	am := st.Metro(r.PathValue("attacker"))
	if vm == nil || am == nil {
		writeError(w, http.StatusNotFound, "unknown metro %q",
			r.PathValue(map[bool]string{true: "victim", false: "attacker"}[vm == nil]))
		return
	}
	var results []*metascritic.Result
	thr := 0.0
	for _, m := range []int{vm.Index, am.Index} {
		if res := st.Results[m]; res != nil {
			results = append(results, res)
			if res.Threshold > thr {
				thr = res.Threshold
			}
		}
	}
	if len(results) == 0 {
		writeError(w, http.StatusNotFound, "neither %s nor %s has a committed run", vm.Name, am.Name)
		return
	}
	if tq := r.URL.Query().Get("thr"); tq != "" {
		v, err := strconv.ParseFloat(tq, 64)
		if err != nil || math.IsNaN(v) || v < 0 || v > 1 { // ±Inf fails the range test
			writeError(w, http.StatusBadRequest, "thr must be in [0,1], got %q", tq)
			return
		}
		thr = v
	}
	rep, err := forensics.Analyze(st.Pipe.World, vm, am, results, thr)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// --- run handlers ---

// runRequest is the POST /v1/runs body. All fields are optional: zero
// values inherit the server's base config.
type runRequest struct {
	// Metros lists metro names (or indices as strings); empty means the
	// world's primary metros.
	Metros []string `json:"metros"`
	// Budget overrides MaxMeasurements.
	Budget int `json:"budget"`
	// Workers bounds the engine pool.
	Workers int `json:"workers"`
	// SharePriors streams learned priors between the batch's metros.
	SharePriors bool `json:"share_priors"`
	// Seed overrides the base seed.
	Seed *int64 `json:"seed"`
}

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	// The read lock spans validation and Submit: a submission either
	// lands before an ingest acquires the write lock (and the ingest then
	// sees it via Active and backs off with 409) or waits until the world
	// mutation is fully mirrored.
	s.worldMu.RLock()
	defer s.worldMu.RUnlock()
	var req runRequest
	if !decodeBody(w, r, &req) {
		return
	}
	st := s.State()
	cfg := s.opts.Base
	if req.Budget != 0 {
		if cap := s.opts.MaxRunBudget; cap > 0 && req.Budget > cap {
			writeError(w, http.StatusUnprocessableEntity,
				"%v: requested budget %d exceeds the server cap %d", metascritic.ErrBudgetExhausted, req.Budget, cap)
			return
		}
		cfg.MaxMeasurements = req.Budget
	}
	if req.Seed != nil {
		cfg.Seed = *req.Seed
	}
	var metros []int
	for _, name := range req.Metros {
		m := st.Metro(name)
		if m == nil {
			writeError(w, http.StatusNotFound, "unknown metro %q", name)
			return
		}
		metros = append(metros, m.Index)
	}
	id, err := s.runs.Submit(engine.Config{
		Base:        cfg,
		Metros:      metros,
		Workers:     req.Workers,
		SharePriors: req.SharePriors,
	})
	if errors.Is(err, engine.ErrTooManyRuns) {
		// The queue is full, not the request wrong: retry once a run
		// finishes.
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/runs/"+id)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": "/v1/runs/" + id})
}

func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"runs": s.runs.List()})
}

func (s *Server) handleRunStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rs, ok := s.runs.Status(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q", id)
		return
	}
	writeJSON(w, http.StatusOK, rs)
}

// --- admin ---

type statsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	SnapshotSeq   int64   `json:"snapshot_seq"`
	// Epoch is the served world's evolution epoch (0 until the first
	// POST /v1/ingest batch is absorbed).
	Epoch    uint32 `json:"epoch"`
	Requests int64  `json:"requests"`
	// World summarizes the served world.
	World struct {
		ASes   int `json:"ases"`
		Metros int `json:"metros"`
		Probes int `json:"probes"`
	} `json:"world"`
	ServedMetros []string `json:"served_metros"`
	ActiveRuns   int      `json:"active_runs"`
	// TotalRuns counts every accepted run submission, including runs whose
	// records the run manager has since dropped from its history.
	TotalRuns int `json:"total_runs"`
	// LastRun is the engine's aggregated statistics for the most
	// recently committed batch (engine.RunStats; durations in ns).
	LastRun *engine.RunStats `json:"last_run,omitempty"`
	// Ingest aggregates the streaming counters since boot.
	Ingest struct {
		Batches  int64 `json:"batches"`
		Events   int64 `json:"events"`
		NewASes  int64 `json:"new_ases"`
		Traces   int64 `json:"traces"`
		Rescores int64 `json:"rescores"`
	} `json:"ingest"`
	// LastIngest is what absorbing the most recent batch did to the
	// pipeline (metascritic.EvolutionStats).
	LastIngest *metascritic.EvolutionStats `json:"last_ingest,omitempty"`
	// RouteCache snapshots the shared route cache (bgp.CacheStats), which
	// since the streaming refactor includes the invalidation counters —
	// Epoch (passes absorbed), Invalidated and Retained entries — and,
	// with the byte-budgeted cache, the pressure counters: BudgetBytes,
	// Evicted and EvictedBytes.
	RouteCache any `json:"route_cache"`
	// Process reports kernel-level memory counters so an operator can see
	// cache pressure against real footprint (zeros where procfs is
	// unavailable).
	Process struct {
		PeakRSSBytes    int64 `json:"peak_rss_bytes"`
		CurrentRSSBytes int64 `json:"current_rss_bytes"`
	} `json:"process"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.worldMu.RLock()
	defer s.worldMu.RUnlock()
	st := s.State()
	g := st.Pipe.World.G
	var out statsResponse
	out.UptimeSeconds = time.Since(s.start).Seconds()
	out.SnapshotSeq = st.Seq
	out.Epoch = st.Epoch
	out.Requests = s.requests.Load()
	out.World.ASes = g.N()
	out.World.Metros = len(g.Metros)
	out.World.Probes = len(st.Pipe.World.Probes)
	out.ServedMetros = []string{}
	for _, m := range st.ServedMetros() {
		out.ServedMetros = append(out.ServedMetros, g.Metros[m].Name)
	}
	out.ActiveRuns = s.runs.Active()
	out.TotalRuns = s.runs.Submitted()
	out.LastRun = s.lastRun.Load()
	out.Ingest.Batches = s.ingestBatches.Load()
	out.Ingest.Events = s.ingestEvents.Load()
	out.Ingest.NewASes = s.ingestNewASes.Load()
	out.Ingest.Traces = s.ingestTraces.Load()
	out.Ingest.Rescores = s.ingestRescores.Load()
	out.LastIngest = s.lastIngest.Load()
	out.RouteCache = st.Pipe.Engine.Cache.Stats()
	mem := sysmem.Read()
	out.Process.PeakRSSBytes = mem.PeakRSSBytes
	out.Process.CurrentRSSBytes = mem.CurrentRSSBytes
	writeJSON(w, http.StatusOK, out)
}
