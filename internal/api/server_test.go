package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"metascritic"
	"metascritic/internal/api/snapshot"
	"metascritic/internal/engine"
	"metascritic/internal/mat"
	"metascritic/internal/obs"
	"metascritic/internal/probe"
)

// testFixture builds a small served world once per test binary: worlds
// and runs are pure functions of their configs, so sharing is safe as
// long as tests treat the pieces as read-only (NewServer snapshots the
// pipeline's store copy-on-write anyway).
var fixture struct {
	once     sync.Once
	worldCfg metascritic.WorldConfig
	base     metascritic.Config
	pipe     *metascritic.Pipeline
	metro    string // served metro name
	results  map[int]*metascritic.Result
}

func testFixture(t testing.TB) {
	t.Helper()
	fixture.once.Do(func() {
		fixture.worldCfg = metascritic.WorldConfig{Seed: 7, Metros: metascritic.DefaultMetros(0.1)}
		w := metascritic.GenerateWorld(fixture.worldCfg)
		fixture.pipe = metascritic.NewPipeline(w)
		fixture.pipe.SeedPublicMeasurements(8, rand.New(rand.NewSource(7)))
		cfg := metascritic.DefaultConfig()
		cfg.MaxMeasurements = 600
		cfg.BatchSize = 60
		cfg.Rank.MaxRank = 6
		cfg.Rank.Iterations = 3
		fixture.base = cfg
		vm := w.G.MetroOfName("Sydney")
		res, err := fixture.pipe.Snapshot().Run(context.Background(), vm.Index, cfg)
		if err != nil {
			panic(err)
		}
		fixture.metro = vm.Name
		fixture.results = map[int]*metascritic.Result{vm.Index: res}
	})
}

func testServer(t testing.TB, opts Options) *Server {
	t.Helper()
	testFixture(t)
	opts.WorldCfg = fixture.worldCfg
	if opts.Base.MaxMeasurements == 0 {
		opts.Base = fixture.base
	}
	return NewServer(fixture.pipe, fixture.results, opts)
}

func get(t testing.TB, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	body, _ := io.ReadAll(res.Body)
	return res, string(body)
}

func memberASNs(t testing.TB) (int, int) {
	t.Helper()
	g := fixture.pipe.World.G
	m := g.MetroOfName(fixture.metro)
	if len(m.Members) < 2 {
		t.Fatalf("metro %s has %d members", m.Name, len(m.Members))
	}
	return g.ASes[m.Members[0]].ASN, g.ASes[m.Members[1]].ASN
}

func TestEndpoints(t *testing.T) {
	s := testServer(t, Options{})
	h := s.Handler()
	a, b := memberASNs(t)

	res, body := get(t, h, "/healthz")
	if res.StatusCode != 200 {
		t.Fatalf("healthz: %d %s", res.StatusCode, body)
	}

	res, body = get(t, h, fmt.Sprintf("/v1/estimate/%s/%d/%d", fixture.metro, a, b))
	if res.StatusCode != 200 {
		t.Fatalf("estimate: %d %s", res.StatusCode, body)
	}
	var est estimateResponse
	if err := json.Unmarshal([]byte(body), &est); err != nil {
		t.Fatal(err)
	}
	if est.A != a || est.B != b || est.Metro != fixture.metro {
		t.Fatalf("echoed identifiers wrong: %+v", est)
	}
	if est.Rating < -1.0001 || est.Rating > 1.0001 {
		t.Fatalf("rating out of range: %+v", est)
	}
	if est.Threshold <= 0 || est.Threshold > 1 {
		t.Fatalf("threshold out of range: %+v", est)
	}

	res, body = get(t, h, fmt.Sprintf("/v1/peers/%s/%d?k=5", fixture.metro, a))
	if res.StatusCode != 200 {
		t.Fatalf("peers: %d %s", res.StatusCode, body)
	}
	var peers peersResponse
	if err := json.Unmarshal([]byte(body), &peers); err != nil {
		t.Fatal(err)
	}
	if len(peers.Peers) != 5 || peers.K != 5 {
		t.Fatalf("expected 5 peers, got %+v", peers)
	}
	for i := 1; i < len(peers.Peers); i++ {
		if peers.Peers[i].Score > peers.Peers[i-1].Score {
			t.Fatalf("peers not sorted by score: %+v", peers.Peers)
		}
	}

	res, body = get(t, h, "/v1/consistency/"+fixture.metro)
	if res.StatusCode != 200 {
		t.Fatalf("consistency: %d %s", res.StatusCode, body)
	}
	var rep ConsistencyReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Scopes) != 4 || rep.Members == 0 {
		t.Fatalf("bad consistency report: %s", body)
	}
	for _, sc := range rep.Scopes {
		if sc.Consistent+len(sc.InconsistentASNs) != rep.Members {
			t.Fatalf("scope %s does not partition the members: %s", sc.Scope, body)
		}
	}

	res, body = get(t, h, "/v1/hijack/"+fixture.metro+"/Tokyo")
	if res.StatusCode != 200 {
		t.Fatalf("hijack: %d %s", res.StatusCode, body)
	}
	if !strings.Contains(body, "extended") {
		t.Fatalf("hijack report missing extended outcome: %s", body)
	}

	res, body = get(t, h, "/admin/stats")
	if res.StatusCode != 200 {
		t.Fatalf("stats: %d %s", res.StatusCode, body)
	}
	var stats map[string]any
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats["snapshot_seq"].(float64) != 1 {
		t.Fatalf("expected snapshot_seq 1: %s", body)
	}
	if _, ok := stats["route_cache"].(map[string]any); !ok {
		t.Fatalf("stats missing route_cache: %s", body)
	}

	// Error surface.
	for path, want := range map[string]int{
		"/v1/estimate/Nowhere/1/2":                                    404,
		fmt.Sprintf("/v1/estimate/%s/%d/%d", fixture.metro, a, a):     400, // self-pair
		fmt.Sprintf("/v1/estimate/%s/%d/999999999", fixture.metro, a): 404,
		fmt.Sprintf("/v1/estimate/%s/%d/notanas", fixture.metro, a):   400,
		"/v1/consistency/Tokyo":                                       404, // no committed run
		fmt.Sprintf("/v1/peers/%s/%d?k=zero", fixture.metro, a):       400,
		"/v1/hijack/" + fixture.metro + "/Tokyo?thr=NaN":              400,
		"/v1/runs/run-9999":                                           404,
	} {
		res, body = get(t, h, path)
		if res.StatusCode != want {
			t.Errorf("%s: got %d want %d (%s)", path, res.StatusCode, want, body)
		}
		if !strings.Contains(res.Header.Get("Content-Type"), "json") {
			t.Errorf("%s: error not JSON", path)
		}
	}
}

func TestRateLimit(t *testing.T) {
	s := testServer(t, Options{RateLimit: 1, RateBurst: 2})
	h := s.Handler()
	codes := []int{}
	for i := 0; i < 4; i++ {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		req.RemoteAddr = "10.0.0.9:1234"
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		codes = append(codes, rec.Code)
		if rec.Code == http.StatusTooManyRequests && rec.Header().Get("Retry-After") == "" {
			t.Fatalf("429 without Retry-After")
		}
	}
	if codes[0] != 200 || codes[1] != 200 || codes[2] != 429 || codes[3] != 429 {
		t.Fatalf("burst of 2 should admit exactly 2: %v", codes)
	}
	// A different client has its own bucket.
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.RemoteAddr = "10.0.0.10:1234"
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("independent client was limited: %d", rec.Code)
	}
}

func TestRateLimiterRefill(t *testing.T) {
	now := time.Unix(1000, 0)
	l := NewRateLimiter(2, 1) // 2 tokens/sec, burst 1
	l.Now = func() time.Time { return now }
	if !l.Allow("c") {
		t.Fatal("first request should pass")
	}
	if l.Allow("c") {
		t.Fatal("bucket should be empty")
	}
	now = now.Add(600 * time.Millisecond) // refills 1.2 tokens
	if !l.Allow("c") {
		t.Fatal("refill did not admit")
	}
	if l.Allow("c") {
		t.Fatal("burst cap should clamp the refill")
	}
}

func TestSubmitRunValidation(t *testing.T) {
	s := testServer(t, Options{MaxRunBudget: 500})
	h := s.Handler()
	post := func(body string) (*http.Response, string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader([]byte(body)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		res := rec.Result()
		b, _ := io.ReadAll(res.Body)
		return res, string(b)
	}

	res, body := post(`{"budget": 100000}`)
	if res.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("over-budget run accepted: %d %s", res.StatusCode, body)
	}
	if !strings.Contains(body, "budget") || !strings.Contains(body, "cap") {
		t.Fatalf("422 does not explain the budget cap: %s", body)
	}

	res, body = post(`{"metros": ["Atlantis"]}`)
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown metro accepted: %d %s", res.StatusCode, body)
	}
	res, body = post(`{"unknown_field": 1}`)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d %s", res.StatusCode, body)
	}
	res, body = post(`{"metros": []`)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated JSON accepted: %d %s", res.StatusCode, body)
	}
	for _, trailing := range []string{`{"metros": ["Tokyo"]} trailing`, `{"budget": 60} {"budget": 60}`} {
		res, body = post(trailing)
		if res.StatusCode != http.StatusBadRequest {
			t.Fatalf("body with bytes after its JSON value accepted: %d %s", res.StatusCode, body)
		}
	}
	// A repeated metro is a config RunAll rejects, so Submit rejects it
	// too, before any run record exists.
	res, body = post(fmt.Sprintf(`{"metros": [%q, %q]}`, fixture.metro, fixture.metro))
	if res.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("repeated metro accepted: %d %s", res.StatusCode, body)
	}
	res, body = post(`{"workers": -1}`)
	if res.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("negative workers accepted: %d %s", res.StatusCode, body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs", nil))
	var list struct {
		Runs []json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("decode run list: %v", err)
	}
	if len(list.Runs) != 0 {
		t.Fatalf("rejected submissions created run records: %s", rec.Body.String())
	}
}

// TestRunHistoryBounded submits more runs than the run manager keeps
// finished records of, in waves that each finish before the next: the
// list keeps only the latest engine.MaxFinishedRuns, the oldest runs poll
// as 404, and /admin/stats still counts every submission.
func TestRunHistoryBounded(t *testing.T) {
	testFixture(t)
	base := fixture.base
	base.MaxMeasurements = 60
	s := testServer(t, Options{Base: base})
	h := s.Handler()
	total := engine.MaxFinishedRuns + 2
	body := fmt.Sprintf(`{"metros": [%q]}`, fixture.metro)
	deadline := time.Now().Add(2 * time.Minute)
	for submitted := 0; submitted < total; {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted:
			submitted++
			if submitted < total {
				continue
			}
		case http.StatusServiceUnavailable:
		default:
			t.Fatalf("submit %d: %d %s", submitted+1, rec.Code, rec.Body.String())
		}
		// The wave is full (or the last one is in): let it finish.
		for s.Runs().Active() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("runs still active after %d submissions", submitted)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	res, out := get(t, h, "/v1/runs")
	var list struct {
		Runs []struct{ ID, State string }
	}
	if err := json.Unmarshal([]byte(out), &list); err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("list runs: %d %s", res.StatusCode, out)
	}
	if len(list.Runs) != engine.MaxFinishedRuns {
		t.Fatalf("listed %d runs after %d submissions, want the latest %d", len(list.Runs), total, engine.MaxFinishedRuns)
	}
	for _, r := range list.Runs {
		if r.State != "done" {
			t.Fatalf("run %s ended %s, want done", r.ID, r.State)
		}
	}
	if first, last := list.Runs[0].ID, list.Runs[len(list.Runs)-1].ID; first != "run-0003" || last != fmt.Sprintf("run-%04d", total) {
		t.Fatalf("listed runs %s..%s, want run-0003..run-%04d", first, last, total)
	}
	for id, want := range map[string]int{"run-0001": 404, "run-0002": 404, "run-0003": 200} {
		if res, out := get(t, h, "/v1/runs/"+id); res.StatusCode != want {
			t.Fatalf("GET /v1/runs/%s: %d, want %d (%s)", id, res.StatusCode, want, out)
		}
	}
	_, out = get(t, h, "/admin/stats")
	var stats struct {
		TotalRuns int `json:"total_runs"`
	}
	if err := json.Unmarshal([]byte(out), &stats); err != nil || stats.TotalRuns != total {
		t.Fatalf("total_runs = %d (%v), want %d", stats.TotalRuns, err, total)
	}
	if err := s.Runs().Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServeWhileCommit is the ISSUE's race-enabled serve-while-commit
// test: readers hammer every GET endpoint while a run executes and
// commits a new State underneath them.
func TestServeWhileCommit(t *testing.T) {
	s := testServer(t, Options{})
	h := s.Handler()
	a, b := memberASNs(t)

	paths := []string{
		fmt.Sprintf("/v1/estimate/%s/%d/%d", fixture.metro, a, b),
		fmt.Sprintf("/v1/peers/%s/%d?k=3", fixture.metro, a),
		"/v1/consistency/" + fixture.metro,
		"/admin/stats",
		"/v1/runs",
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				res, body := get(t, h, paths[(i+n)%len(paths)])
				if res.StatusCode != 200 {
					t.Errorf("reader got %d for %s: %s", res.StatusCode, paths[(i+n)%len(paths)], body)
					return
				}
			}
		}(i)
	}

	// Submit a run on Tokyo and wait for its commit.
	req := httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(`{"metros": ["Tokyo"], "budget": 400}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	var accepted map[string]string
	json.Unmarshal(rec.Body.Bytes(), &accepted)
	id := accepted["id"]
	if id == "" {
		t.Fatalf("no run id in %s", rec.Body.String())
	}

	deadline := time.After(60 * time.Second)
	for {
		res, body := get(t, h, "/v1/runs/"+id)
		if res.StatusCode != 200 {
			t.Fatalf("status poll: %d %s", res.StatusCode, body)
		}
		var st map[string]any
		json.Unmarshal([]byte(body), &st)
		state, _ := st["state"].(string)
		if state == "done" {
			break
		}
		if state == "failed" || state == "canceled" {
			t.Fatalf("run ended %s: %s", state, body)
		}
		select {
		case <-deadline:
			t.Fatalf("run %s never finished: %s", id, body)
		case <-time.After(20 * time.Millisecond):
		}
	}
	close(stop)
	wg.Wait()

	// The commit swapped in a new snapshot that now serves Tokyo.
	if got := s.State().Seq; got < 2 {
		t.Fatalf("commit did not bump the snapshot seq: %d", got)
	}
	res, body := get(t, h, "/v1/consistency/Tokyo")
	if res.StatusCode != 200 {
		t.Fatalf("Tokyo not served after commit: %d %s", res.StatusCode, body)
	}
	// The original metro is still served from the merged state.
	res, body = get(t, h, "/v1/consistency/"+fixture.metro)
	if res.StatusCode != 200 {
		t.Fatalf("%s lost after commit: %d %s", fixture.metro, res.StatusCode, body)
	}
	if err := s.Runs().Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestRestartByteIdentity proves the -save / -load contract: a server
// booted from a snapshot artifact serves byte-identical responses.
func TestRestartByteIdentity(t *testing.T) {
	s := testServer(t, Options{})
	h := s.Handler()

	art := snapshot.Capture(fixture.worldCfg, fixture.pipe, fixture.results)
	var buf bytes.Buffer
	if err := snapshot.Encode(&buf, art); err != nil {
		t.Fatal(err)
	}
	art2, err := snapshot.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	p2, results2, err := snapshot.Restore(art2)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(p2, results2, Options{WorldCfg: art2.World, Base: fixture.base})
	h2 := s2.Handler()

	a, b := memberASNs(t)
	paths := []string{
		"/healthz",
		fmt.Sprintf("/v1/estimate/%s/%d/%d", fixture.metro, a, b),
		fmt.Sprintf("/v1/estimate/%s/%d/%d", fixture.metro, b, a),
		fmt.Sprintf("/v1/peers/%s/%d?k=25", fixture.metro, a),
		"/v1/consistency/" + fixture.metro,
		"/v1/hijack/" + fixture.metro + "/Tokyo",
		"/v1/hijack/" + fixture.metro + "/Tokyo?thr=0.4",
	}
	for _, path := range paths {
		res1, body1 := get(t, h, path)
		res2, body2 := get(t, h2, path)
		if res1.StatusCode != res2.StatusCode {
			t.Errorf("%s: status %d vs %d after restart", path, res1.StatusCode, res2.StatusCode)
			continue
		}
		if body1 != body2 {
			t.Errorf("%s: response changed across restart:\n before: %s\n after:  %s", path, body1, body2)
		}
	}
}

func BenchmarkEstimateHandler(b *testing.B) {
	s := testServer(b, Options{})
	h := s.Handler()
	x, y := memberASNs(b)
	path := fmt.Sprintf("/v1/estimate/%s/%d/%d", fixture.metro, x, y)
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		b.Fatalf("estimate: %d %s", rec.Code, rec.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatal(rec.Code)
		}
	}
}

// fullSortPeers is the peers response computed the long way: every other
// member's entry, found through Estimate.Value, in a full sort by score
// descending, then ASN, cut to k.
func fullSortPeers(st *State, res *metascritic.Result, metro string, asn, i, k int) peersResponse {
	g := st.Pipe.World.G
	var peers []peerEntry
	for j, bj := range res.Members {
		if j == i {
			continue
		}
		e := peerEntry{ASN: g.ASes[bj].ASN}
		if v, obs := res.Estimate.Value(res.Members[i], bj); obs {
			e.Measured, e.Link, e.Score = true, v > 0, 1
			if v <= 0 {
				e.Score = 0
			}
		} else {
			e.Score = res.Ratings.At(i, j)
			e.Link = e.Score >= res.Threshold
		}
		peers = append(peers, e)
	}
	sort.Slice(peers, func(a, b int) bool {
		if peers[a].Score != peers[b].Score {
			return peers[a].Score > peers[b].Score
		}
		return peers[a].ASN < peers[b].ASN
	})
	k = min(k, 200)
	if len(peers) > k {
		peers = peers[:k]
	}
	return peersResponse{Metro: metro, ASN: asn, K: k, Threshold: res.Threshold, Peers: peers}
}

// TestPeersMatchFullSort requires the peers handler's top-k walk to answer
// byte for byte what a full sort of every member gives, for every member
// of the served metro and k of 1, 20, 200 and the member count.
func TestPeersMatchFullSort(t *testing.T) {
	s := testServer(t, Options{})
	h := s.Handler()
	st := s.State()
	m := st.Metro(fixture.metro)
	res := st.Results[m.Index]
	n := len(res.Members)
	measured := 0
	for i, ai := range res.Members {
		asn := st.Pipe.World.G.ASes[ai].ASN
		for _, k := range []int{1, 20, 200, n} {
			want := httptest.NewRecorder()
			ref := fullSortPeers(st, res, m.Name, asn, i, k)
			writeJSON(want, http.StatusOK, ref)
			_, got := get(t, h, fmt.Sprintf("/v1/peers/%s/%d?k=%d", fixture.metro, asn, k))
			if got != want.Body.String() {
				t.Fatalf("AS%d k=%d: peers body differs from the full sort:\n got:  %s\n want: %s", asn, k, got, want.Body.String())
			}
			for _, e := range ref.Peers {
				if e.Measured {
					measured++
				}
			}
		}
	}
	if measured == 0 {
		t.Fatalf("no measured peer in any response: the E-row walk is untested")
	}
}

// BenchmarkPeersHandler times one top-20 peers request at a head metro of
// a 10k-AS world: 805 members, with 1% of the pairs observed and random
// ratings elsewhere (the handler reads no more than that).
func BenchmarkPeersHandler(b *testing.B) {
	cfg := metascritic.WorldConfig{Seed: 1, Metros: metascritic.InternetMetros(10000)}
	w := metascritic.GenerateWorld(cfg)
	p := metascritic.NewPipeline(w)
	metro := w.PrimaryMetros()[0]
	members := probe.TopMembers(w.G, w.G.Metros[metro].Members, metascritic.DefaultConfig().MaxMetroMembers)
	n := len(members)
	rng := rand.New(rand.NewSource(1))
	est := p.Store.Estimate(metro, members, obs.NegMetascritic)
	for k := 0; k < n*n/200; k++ {
		if i, j := rng.Intn(n), rng.Intn(n); i != j {
			est.Set(i, j, float64(rng.Intn(2)*2-1))
		}
	}
	ratings := mat.NewSym(n)
	for k := range ratings.Data {
		ratings.Data[k] = 2*rng.Float64() - 1
	}
	res := &metascritic.Result{Metro: metro, Members: members, Estimate: est, Ratings: ratings, Rank: 1, Threshold: 0.5}
	s := NewServer(p, map[int]*metascritic.Result{metro: res}, Options{WorldCfg: cfg})
	h := s.Handler()
	path := fmt.Sprintf("/v1/peers/%s/%d?k=20", w.G.Metros[metro].Name, w.G.ASes[members[n/2]].ASN)
	req := httptest.NewRequest(http.MethodGet, path, nil)
	b.Logf("%d members", n)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("peers: %d %s", rec.Code, rec.Body.String())
		}
	}
}
