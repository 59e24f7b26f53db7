package api

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"
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
