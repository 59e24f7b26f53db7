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
	"strings"
	"sync"
	"testing"
	"time"

	"metascritic"
)

// streamServer builds a private served world for ingest tests: ingest
// mutates the world in place, so these tests must not share the
// package-level read-only fixture.
func streamServer(t testing.TB) (*Server, string) {
	t.Helper()
	worldCfg := metascritic.WorldConfig{Seed: 21, Metros: metascritic.DefaultMetros(0.1)}
	w := metascritic.GenerateWorld(worldCfg)
	p := metascritic.NewPipeline(w)
	p.SeedPublicMeasurements(6, rand.New(rand.NewSource(21)))
	cfg := metascritic.DefaultConfig()
	cfg.MaxMeasurements = 500
	cfg.BatchSize = 60
	cfg.Rank.MaxRank = 6
	cfg.Rank.Iterations = 3
	m := w.G.MetroOfName("Sydney")
	res, err := p.Snapshot().Run(context.Background(), m.Index, cfg)
	if err != nil {
		t.Fatalf("fixture run: %v", err)
	}
	s := NewServer(p, map[int]*metascritic.Result{m.Index: res}, Options{WorldCfg: worldCfg, Base: cfg})
	return s, m.Name
}

func postIngest(t testing.TB, h http.Handler, body string) (*http.Response, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader([]byte(body)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	b, _ := io.ReadAll(res.Body)
	return res, string(b)
}

func TestIngest(t *testing.T) {
	s, metro := streamServer(t)
	h := s.Handler()

	res, body := postIngest(t, h, `{"seed": 5, "link_downs": 8, "depeerings": 2, "link_ups": 8, "ixp_joins": 3}`)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", res.StatusCode, body)
	}
	var ing ingestResponse
	if err := json.Unmarshal([]byte(body), &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Epoch != 1 || ing.SnapshotSeq != 2 {
		t.Fatalf("expected epoch 1 / seq 2: %+v", ing)
	}
	if ing.Events == 0 || ing.Traces == 0 || ing.Invalidated == 0 {
		t.Fatalf("batch absorbed nothing: %+v", ing)
	}
	if len(ing.Rescored) != 1 || ing.Rescored[0] != metro {
		t.Fatalf("expected %s rescored: %+v", metro, ing)
	}
	st := s.State()
	if st.Epoch != 1 || st.Seq != 2 {
		t.Fatalf("state not swapped: epoch %d seq %d", st.Epoch, st.Seq)
	}
	if st.Pipe.World.Epoch != 1 {
		t.Fatalf("world epoch = %d, want 1", st.Pipe.World.Epoch)
	}

	// The re-scored metro still serves every read endpoint.
	g := st.Pipe.World.G
	members := g.MetroOfName(metro).Members
	a, b := g.ASes[members[0]].ASN, g.ASes[members[1]].ASN
	for _, path := range []string{
		fmt.Sprintf("/v1/estimate/%s/%d/%d", metro, a, b),
		fmt.Sprintf("/v1/peers/%s/%d?k=3", metro, a),
		"/v1/consistency/" + metro,
	} {
		if res, body := get(t, h, path); res.StatusCode != 200 {
			t.Fatalf("%s after ingest: %d %s", path, res.StatusCode, body)
		}
	}

	// A second batch with AS arrivals grows the world and forces a full
	// route-cache invalidation (retained 0).
	res, body = postIngest(t, h, `{"seed": 6, "link_ups": 4, "new_ases": 3, "traces_per_probe": 2}`)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("second ingest: %d %s", res.StatusCode, body)
	}
	var ing2 ingestResponse
	json.Unmarshal([]byte(body), &ing2)
	if ing2.Epoch != 2 || ing2.NewASes != 3 || ing2.Retained != 0 {
		t.Fatalf("arrival batch: %+v", ing2)
	}
	if ing2.NewAddresses == 0 {
		t.Fatalf("arrivals allocated no addresses: %+v", ing2)
	}

	// /admin/stats reports the epoch, the ingest counters and the route
	// cache's invalidation counters.
	res, body = get(t, h, "/admin/stats")
	if res.StatusCode != 200 {
		t.Fatalf("stats: %d %s", res.StatusCode, body)
	}
	var stats statsResponse
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != 2 {
		t.Fatalf("stats epoch = %d, want 2", stats.Epoch)
	}
	if stats.Ingest.Batches != 2 || stats.Ingest.Events == 0 || stats.Ingest.NewASes != 3 ||
		stats.Ingest.Traces == 0 || stats.Ingest.Rescores != 2 {
		t.Fatalf("ingest counters: %+v", stats.Ingest)
	}
	if stats.LastIngest == nil || stats.LastIngest.Epoch != 2 {
		t.Fatalf("last ingest missing: %+v", stats.LastIngest)
	}
	var raw map[string]any
	json.Unmarshal([]byte(body), &raw)
	rc, ok := raw["route_cache"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing route_cache: %s", body)
	}
	for _, key := range []string{"Epoch", "Invalidated", "Retained"} {
		if _, ok := rc[key]; !ok {
			t.Fatalf("route_cache missing %s: %s", key, body)
		}
	}
	if rc["Invalidated"].(float64) == 0 {
		t.Fatalf("route cache reports no invalidations after two batches: %s", body)
	}
}

// TestIngestDeterminism pins the streaming determinism contract at the
// API level: two servers over identically generated worlds, fed the
// same ingest request, serve byte-identical estimates.
func TestIngestDeterminism(t *testing.T) {
	s1, metro := streamServer(t)
	s2, _ := streamServer(t)
	h1, h2 := s1.Handler(), s2.Handler()
	const batch = `{"seed": 9, "link_downs": 6, "link_ups": 6, "depeerings": 2}`
	for i, h := range []http.Handler{h1, h2} {
		if res, body := postIngest(t, h, batch); res.StatusCode != 200 {
			t.Fatalf("ingest on server %d: %d %s", i, res.StatusCode, body)
		}
	}
	g := s1.State().Pipe.World.G
	members := g.MetroOfName(metro).Members
	a, b := g.ASes[members[0]].ASN, g.ASes[members[1]].ASN
	for _, path := range []string{
		fmt.Sprintf("/v1/estimate/%s/%d/%d", metro, a, b),
		fmt.Sprintf("/v1/peers/%s/%d?k=10", metro, a),
	} {
		_, body1 := get(t, h1, path)
		_, body2 := get(t, h2, path)
		if body1 != body2 {
			t.Errorf("%s diverged across identically ingested servers:\n %s\n %s", path, body1, body2)
		}
	}
}

func TestIngestValidation(t *testing.T) {
	// Rejections happen before any mutation, so the shared read-only
	// fixture is safe here.
	s := testServer(t, Options{})
	h := s.Handler()
	for body, want := range map[string]int{
		`{"link_downs": 2`:                        http.StatusBadRequest, // truncated JSON
		`{"surprise": 1}`:                         http.StatusBadRequest, // unknown field
		`{}`:                                      http.StatusBadRequest, // empty spec
		`{"link_downs": -1}`:                      http.StatusBadRequest, // negative count
		`{"new_ases": 1025}`:                      http.StatusBadRequest, // above maxEventsPerKind
		`{"link_downs": 2} trailing`:              http.StatusBadRequest, // bytes after the value
		`{"link_downs": 2}{"seed": 1}`:            http.StatusBadRequest, // a second value
		`{"link_ups": 1, "traces_per_probe": -2}`: http.StatusBadRequest,
		`{"link_ups": 1, "traces_per_probe": 4611686018427387904}`: http.StatusBadRequest, // would panic after Evolve
	} {
		res, resp := postIngest(t, h, body)
		if res.StatusCode != want {
			t.Errorf("%s: got %d want %d (%s)", body, res.StatusCode, want, resp)
		}
	}
	if s.State().Epoch != 0 || s.eng.Pipeline().World.Epoch != 0 {
		t.Fatalf("a rejected ingest mutated the world")
	}
}

func TestIngestConflictsWithActiveRuns(t *testing.T) {
	s := testServer(t, Options{})
	h := s.Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(`{"metros": ["Tokyo"], "budget": 400}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	res, body := postIngest(t, h, `{"seed": 1, "link_downs": 2}`)
	if res.StatusCode != http.StatusConflict {
		t.Fatalf("ingest during an active run: got %d want 409 (%s)", res.StatusCode, body)
	}
	if s.eng.Pipeline().World.Epoch != 0 {
		t.Fatal("409'd ingest still mutated the world")
	}
	// Drain the run so the shared fixture's manager holds no goroutines.
	if err := s.Runs().Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServeWhileIngest is the streaming analogue of TestServeWhileCommit:
// readers hammer the world-touching endpoints while two ingest batches
// evolve the world underneath them. Run with -race this pins the
// worldMu discipline.
func TestServeWhileIngest(t *testing.T) {
	s, metro := streamServer(t)
	h := s.Handler()
	g := s.State().Pipe.World.G
	members := g.MetroOfName(metro).Members
	a, b := g.ASes[members[0]].ASN, g.ASes[members[1]].ASN

	paths := []string{
		fmt.Sprintf("/v1/estimate/%s/%d/%d", metro, a, b),
		fmt.Sprintf("/v1/peers/%s/%d?k=3", metro, a),
		"/v1/consistency/" + metro,
		"/v1/hijack/" + metro + "/Tokyo",
		"/admin/stats",
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

	for seed := 1; seed <= 2; seed++ {
		body := fmt.Sprintf(`{"seed": %d, "link_downs": 5, "link_ups": 5, "traces_per_probe": 2}`, seed)
		res, resp := postIngest(t, h, body)
		if res.StatusCode != 200 {
			t.Fatalf("ingest %d: %d %s", seed, res.StatusCode, resp)
		}
		time.Sleep(10 * time.Millisecond) // let readers overlap the swapped state
	}
	close(stop)
	wg.Wait()
	if got := s.State().Epoch; got != 2 {
		t.Fatalf("final epoch = %d, want 2", got)
	}
}
