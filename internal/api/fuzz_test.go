package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"
)

// pathElem escapes s as one path element. Dots are escaped too, so that
// "." and ".." reach the handler as values instead of being cleaned away
// (and redirected) by the mux.
func pathElem(s string) string {
	return strings.ReplaceAll(url.PathEscape(s), ".", "%2E")
}

// FuzzReadParams drives arbitrary path elements and query values through
// the GET routes of the fixture's handler. No request may panic, every
// status must be 200, 400, 404 or 422, and every 200 must carry a
// non-empty JSON body.
func FuzzReadParams(f *testing.F) {
	s := testServer(f, Options{})
	h := s.Handler()
	a, b := memberASNs(f)
	as, bs := strconv.Itoa(a), strconv.Itoa(b)
	f.Add(fixture.metro, as, bs, as, "5", "0.4")
	for _, v := range []string{"NaN", "Inf", "-0", "1e309", "-1", "9223372036854775808", ""} {
		f.Add(fixture.metro, v, bs, v, v, v)
		f.Add(fixture.metro, as, v, as, v, v)
		f.Add(v, as, bs, as, "5", "0.4")
	}
	f.Fuzz(func(t *testing.T, metro, a, b, as, k, thr string) {
		if metro == "" || a == "" || b == "" || as == "" {
			t.Skip("an empty path element is cleaned away before routing")
		}
		m := pathElem(metro)
		for _, path := range []string{
			"/v1/estimate/" + m + "/" + pathElem(a) + "/" + pathElem(b),
			"/v1/peers/" + m + "/" + pathElem(as) + "?k=" + url.QueryEscape(k),
			"/v1/consistency/" + m,
			"/v1/hijack/" + m + "/Tokyo?thr=" + url.QueryEscape(thr),
		} {
			res, body := get(t, h, path)
			switch res.StatusCode {
			case http.StatusOK:
				if body == "" || !json.Valid([]byte(body)) {
					t.Fatalf("%s: 200 with a body that is not JSON: %q", path, body)
				}
			case http.StatusBadRequest, http.StatusNotFound, http.StatusUnprocessableEntity:
			default:
				t.Fatalf("%s: status %d (%s)", path, res.StatusCode, body)
			}
		}
	})
}

// postBody sends body to a POST route and checks the response contract
// shared by every POST fuzz target: the status is one the API documents,
// the body is JSON, and a 4xx leaves the serving State's Seq and Epoch
// where they were.
func postBody(t *testing.T, s *Server, h http.Handler, path, body string) int {
	t.Helper()
	before := s.State()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body))))
	res := rec.Result()
	out, _ := io.ReadAll(res.Body)
	switch res.StatusCode {
	case http.StatusOK, http.StatusAccepted, http.StatusBadRequest, http.StatusNotFound,
		http.StatusConflict, http.StatusUnprocessableEntity:
	default:
		t.Fatalf("%s %q: status %d (%s)", path, body, res.StatusCode, out)
	}
	if !json.Valid(out) {
		t.Fatalf("%s %q: status %d with a body that is not JSON: %q", path, body, res.StatusCode, out)
	}
	if res.StatusCode >= 400 {
		if after := s.State(); after.Seq != before.Seq || after.Epoch != before.Epoch {
			t.Fatalf("%s %q: %d moved the state from seq %d epoch %d to seq %d epoch %d",
				path, body, res.StatusCode, before.Seq, before.Epoch, after.Seq, after.Epoch)
		}
	}
	return res.StatusCode
}

// shutdownRuns drains the server's run manager when the fuzz target ends.
func shutdownRuns(f *testing.F, s *Server) {
	f.Cleanup(func() {
		if err := s.Runs().Shutdown(context.Background()); err != nil {
			f.Errorf("shutdown: %v", err)
		}
	})
}

// FuzzIngestBody drives arbitrary bodies through POST /v1/ingest. Ingest
// mutates the world in place, so the target serves its own small world
// instead of the shared fixture.
func FuzzIngestBody(f *testing.F) {
	s, _ := streamServer(f)
	shutdownRuns(f, s)
	h := s.Handler()
	for _, body := range []string{
		`{"seed": 5, "link_downs": 2, "link_ups": 2, "traces_per_probe": 0}`,
		`{"seed": 6, "depeerings": 1, "new_ases": 1, "ixp_joins": 1, "traces_per_probe": 1}`,
		`{"link_downs": -1}`,
		`{"link_ups": 1, "traces_per_probe": 65}`,
		`{"link_ups": 1, "new_ases": 1025}`,
		`{"link_ups": 1, "surprise": 1}`,
		`{"seed": 7, "link_ups": 1, "traces_per_probe": 0} trailing`,
		`{"link_ups": 9223372036854775808}`,
		`{"seed": 1e400, "link_ups": 1}`,
		`{}`,
		`null`,
		``,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		postBody(t, s, h, "/v1/ingest", body)
	})
}

// FuzzSubmitRunBody drives arbitrary bodies through POST /v1/runs on the
// shared fixture with a small base budget and budget cap. Each accepted
// run is waited out, so its commit cannot land during a later request.
func FuzzSubmitRunBody(f *testing.F) {
	testFixture(f)
	base := fixture.base
	base.MaxMeasurements = 60
	s := testServer(f, Options{Base: base, MaxRunBudget: 120})
	shutdownRuns(f, s)
	h := s.Handler()
	for _, body := range []string{
		fmt.Sprintf(`{"metros": [%q], "budget": 80}`, fixture.metro),
		fmt.Sprintf(`{"metros": [%q], "budget": 80, "seed": 3, "workers": 1, "share_priors": true}`, fixture.metro),
		`{"budget": -5}`,
		`{"workers": -1, "metros": ["Tokyo"]}`,
		`{"budget": 121}`,
		`{"metros": []}`,
		`{"metros": ["Atlantis"]}`,
		`{"metros": ["Tokyo"], "surprise": 1}`,
		`{"metros": ["Tokyo"]} trailing`,
		`{"budget": 9223372036854775808}`,
		`{"seed": 1e400}`,
		`[]`,
		``,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		if postBody(t, s, h, "/v1/runs", body) != http.StatusAccepted {
			return
		}
		deadline := time.Now().Add(time.Minute)
		for s.Runs().Active() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%q: run still active after a minute", body)
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}
