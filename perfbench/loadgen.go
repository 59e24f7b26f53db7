package main

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns bounds the generator's client connections (and its sending
// workers) to the machine's two cores; every phase together stays within
// it.
const maxConns = 2

// request is one scheduled GET and the check its response must pass.
type request struct {
	kind  string
	path  string
	check func(body []byte) bool
}

// sample is one request's timeline. Latency is measured from due, the
// moment the schedule said to send, so a stall that delays later sends
// counts against them (coordinated-omission safe).
type sample struct {
	kind            string
	due, sent, done time.Time
	ok              bool
}

func (s sample) latencyMS() float64 { return ms(s.done.Sub(s.due)) }
func (s sample) lateMS() float64    { return ms(s.sent.Sub(s.due)) }

// loadgen is an open-loop HTTP load generator over conns keep-alive
// connections.
type loadgen struct {
	base   string
	conns  int
	client *http.Client
	ck     *checks
}

func newLoadgen(base string, ck *checks, conns int) *loadgen {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loadgen{base: base, conns: conns, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, ck: ck}
}

func (lg *loadgen) close() { lg.client.CloseIdleConnections() }

// get fetches one path and returns the status and body.
func (lg *loadgen) get(path string) (int, []byte, error) {
	resp, err := lg.client.Get(lg.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// post sends one JSON body and returns the status and response body.
func (lg *loadgen) post(path, body string) (int, []byte, error) {
	resp, err := lg.client.Post(lg.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// run sends reqs on an open-loop schedule, request k due at k/rate
// seconds after start, from one worker per connection. A request whose
// due time finds every worker busy is sent late, and its latency still counts from
// its due time. A rate of 0 makes the loop closed: each worker sends its
// next request as soon as its last one returns. Samples come back in
// schedule order.
func (lg *loadgen) run(reqs []request, rate float64) []sample {
	out := make([]sample, len(reqs))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < lg.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(reqs) {
					return
				}
				due := time.Now()
				if rate > 0 {
					due = start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				r := reqs[k]
				s := sample{kind: r.kind, due: due, sent: time.Now()}
				status, body, err := lg.get(r.path)
				s.done = time.Now()
				s.ok = lg.ck.check(err == nil && status == http.StatusOK && r.check(body),
					"GET %s: status %d, err %v, body %.200s", r.path, status, err, body)
				out[k] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// latencies returns the latencies (ms) of the samples of one kind, or of
// every sample when kind is empty.
func latencies(ss []sample, kind string) []float64 {
	var out []float64
	for _, s := range ss {
		if kind == "" || s.kind == kind {
			out = append(out, s.latencyMS())
		}
	}
	return out
}

func lateness(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.lateMS()
	}
	return out
}

func failures(ss []sample) int {
	n := 0
	for _, s := range ss {
		if !s.ok {
			n++
		}
	}
	return n
}
