package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"sync"
	"time"

	"metascritic"
	"metascritic/internal/api"
)

// The serving phase is the same on every workload. It lasts the
// workload's serveShare of the run's seconds and is split, in these
// shares, into open-loop reads at a low and a high fixed rate, a
// closed-loop capacity phase, and a churn phase of ingests while reads
// continue at the low rate.
const (
	lowRPS, highRPS     = 400, 1000
	lowShare, highShare = 0.2, 0.2
	capacityShare       = 0.25
	churnShare          = 0.35
	// One ingest holds the world lock for ~0.1 s on the study world and
	// ~0.4 s on the 10k-AS one; 0.75 s apart, the reads it holds up drain
	// before the next.
	ingestEvery = 750 * time.Millisecond
	minIngests  = 7
	// ingestBody is one churn batch; the benchmark fills in its seed. No
	// AS arrivals, so route-cache invalidation stays scoped, and no
	// public-view refresh: four traces per probe would be ~34k traceroutes
	// per ingest on the 10k-AS world.
	ingestBody = `{"seed":%d,"link_downs":20,"depeerings":5,"link_ups":20,"ixp_joins":5,"traces_per_probe":0}`
)

// Read mix per block of 100 requests: 91 estimate and 9 peers at fixed,
// evenly spaced positions; the metros and ASes are drawn from the seed.
// Hijack forensics is not in the mix: one analysis takes ~0.4 s on the
// 10k-AS world, so on two cores it would set every read figure there.
// forensics.analyze_ms times it directly.
const (
	mixBlock = 100
	mixPeers = 9
	peersK   = 20
	// warmupReqs run at the low rate, unmeasured, before the first
	// phase: connections open and lazy state settles.
	warmupReqs = 200
)

// mixKinds is the request kind at each position of a block.
var mixKinds = func() []string {
	kinds := make([]string, mixBlock)
	for i := range kinds {
		kinds[i] = "estimate"
	}
	for p := 0; p < mixPeers; p++ {
		kinds[(2*p+1)*mixBlock/(2*mixPeers)] = "peers"
	}
	return kinds
}()

type servedMetro struct {
	name string
	asns []int
}

// mix draws read requests from the served state.
type mix struct {
	metros []servedMetro
	rng    *rand.Rand
}

func newMix(st *api.State, rng *rand.Rand) *mix {
	g := st.Pipe.World.G
	mx := &mix{rng: rng}
	for _, m := range st.ServedMetros() {
		sm := servedMetro{name: g.Metros[m].Name}
		for _, ai := range st.Results[m].Members {
			sm.asns = append(sm.asns, g.ASes[ai].ASN)
		}
		mx.metros = append(mx.metros, sm)
	}
	return mx
}

// reads returns n requests of the mix; whole blocks of it when n is a
// multiple of mixBlock.
func (mx *mix) reads(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = mx.request(mixKinds[i%mixBlock])
	}
	return out
}

// blocks rounds a phase of d at rate requests per second to whole mix
// blocks, at least one.
func blocks(d time.Duration, rate float64) int {
	return mixBlock * max(1, int(math.Round(d.Seconds()*rate/mixBlock)))
}

func (mx *mix) request(kind string) request {
	switch kind {
	case "peers":
		m := mx.metros[mx.rng.Intn(len(mx.metros))]
		asn := m.asns[mx.rng.Intn(len(m.asns))]
		want := peersK
		if len(m.asns)-1 < want {
			want = len(m.asns) - 1
		}
		return request{kind: kind,
			path:  fmt.Sprintf("/v1/peers/%s/%d?k=%d", url.PathEscape(m.name), asn, peersK),
			check: checkPeers(m.name, asn, want)}
	default:
		m := mx.metros[mx.rng.Intn(len(mx.metros))]
		i := mx.rng.Intn(len(m.asns))
		j := mx.rng.Intn(len(m.asns) - 1)
		if j >= i {
			j++
		}
		return request{kind: kind,
			path:  fmt.Sprintf("/v1/estimate/%s/%d/%d", url.PathEscape(m.name), m.asns[i], m.asns[j]),
			check: checkEstimate(m.name, m.asns[i], m.asns[j])}
	}
}

func checkEstimate(metro string, a, b int) func([]byte) bool {
	return func(body []byte) bool {
		var r struct {
			Metro     string  `json:"metro"`
			A         int     `json:"a"`
			B         int     `json:"b"`
			Rating    float64 `json:"rating"`
			Threshold float64 `json:"threshold"`
		}
		return json.Unmarshal(body, &r) == nil && r.Metro == metro && r.A == a && r.B == b &&
			math.Abs(r.Rating) <= 1 && r.Threshold > 0 && r.Threshold <= 1
	}
}

func checkPeers(metro string, asn, want int) func([]byte) bool {
	return func(body []byte) bool {
		var r struct {
			Metro string `json:"metro"`
			ASN   int    `json:"asn"`
			Peers []struct {
				ASN   int     `json:"asn"`
				Score float64 `json:"score"`
			} `json:"peers"`
		}
		if json.Unmarshal(body, &r) != nil || r.Metro != metro || r.ASN != asn || len(r.Peers) != want {
			return false
		}
		for i := 1; i < len(r.Peers); i++ {
			if r.Peers[i].Score > r.Peers[i-1].Score {
				return false
			}
		}
		return true
	}
}

// servePhase boots the HTTP API over the pipeline and the pass's
// results, measures the read, capacity and churn phases over a loopback
// listener, and shuts the server down.
func (b *bench) servePhase(root int, results map[int]*metascritic.Result) {
	dur := time.Duration(b.wl.serveShare * float64(b.budget))
	var srv *api.Server
	b.tr.timed(root, "api", "NewServer", func() {
		srv = api.NewServer(b.p, results, api.Options{WorldCfg: b.wl.world, Base: b.wl.cfg})
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if !b.ck.check(err == nil, "listen: %v", err) {
		return
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	base := "http://" + ln.Addr().String()
	lg := newLoadgen(base, &b.ck, maxConns)
	defer func() {
		lg.close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: server shutdown: %v\n", err)
		}
		<-served
	}()

	mx := newMix(srv.State(), rand.New(rand.NewSource(b.seed)))

	lg.run(mx.reads(warmupReqs), lowRPS)
	var reads []sample
	for _, ph := range []struct {
		name        string
		rate, share float64
	}{{"low", lowRPS, lowShare}, {"high", highRPS, highShare}} {
		n := blocks(time.Duration(ph.share*float64(dur)), ph.rate)
		settle()
		var ss []sample
		b.tr.timed(root, "loadgen", "read."+ph.name, func() { ss = lg.run(mx.reads(n), ph.rate) })
		lat := latencies(ss, "")
		b.e2e.set("read_p50_ms."+ph.name, "ms", median(lat))
		b.layer.set("api.read_p99_ms."+ph.name, "ms", quantile(lat, 0.99))
		if ph.name == "low" {
			b.layer.set("api.estimate_p50_us", "us", 1000*median(latencies(ss, "estimate")))
			b.layer.set("api.peers_p50_us", "us", 1000*median(latencies(ss, "peers")))
		}
		reads = append(reads, ss...)
	}

	settle()
	b.e2e.set("read_max_rps", "1/s", b.capacity(root, lg, mx, time.Duration(capacityShare*float64(dur))))

	// Churn: the reads move to one connection of their own and the
	// ingests to the other, so neither waits for the generator's pool.
	lg.close()
	rlg := newLoadgen(base, &b.ck, 1)
	ilg := newLoadgen(base, &b.ck, 1)
	defer rlg.close()
	defer ilg.close()
	settle()
	churn := b.churn(root, rlg, ilg, mx, srv, time.Duration(churnShare*float64(dur)))
	reads = append(reads, churn...)
	b.layer.set("loadgen.late_ms", "ms", quantile(lateness(reads), 0.99))
	b.layer.set("loadgen.sent", "count", float64(len(reads)))
	b.layer.set("loadgen.failed", "count", float64(failures(reads)))
	st := b.p.Engine.Cache.Stats()
	b.layer.set("bgp.invalidated", "count", float64(st.Invalidated))
	b.layer.set("bgp.retained", "count", float64(st.Retained))
}

// capacity sends whole mix blocks closed-loop, each connection sending
// its next request as soon as its last one returns, for d. It returns the
// requests completed per second: the highest arrival rate the server
// sustains on the mix without a growing backlog.
func (b *bench) capacity(root int, lg *loadgen, mx *mix, d time.Duration) float64 {
	sent := 0
	start := time.Now()
	for sent == 0 || time.Since(start) < d {
		sent += len(lg.run(mx.reads(mixBlock), 0))
	}
	took := time.Since(start)
	b.tr.add(root, "loadgen", "capacity", start, start.Add(took))
	return float64(sent) / took.Seconds()
}

type ingestResponse struct {
	Epoch       uint32 `json:"epoch"`
	SnapshotSeq int64  `json:"snapshot_seq"`
}

// churn sends one ingest every ingestEvery for d (at least minIngests)
// on ilg, while reads continue at the low rate on rlg, and returns the
// read samples. Batch i is seeded with i, so every run applies the same
// churn to the same world. An ingest is visible once GET /admin/stats,
// sent on the same connection as soon as the POST returns, reports its
// snapshot_seq.
func (b *bench) churn(root int, rlg, ilg *loadgen, mx *mix, srv *api.Server, d time.Duration) []sample {
	st0 := srv.State()
	epoch, seq := st0.Epoch, st0.Seq

	n := max(minIngests, int(d/ingestEvery))
	type ingest struct{ sent, done, visible time.Time }
	ingests := make([]ingest, 0, n)
	var reads []sample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = rlg.run(mx.reads(blocks(time.Duration(n)*ingestEvery, lowRPS)), lowRPS)
	}()
	start := time.Now()
	for i := 0; i < n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i)*ingestEvery + ingestEvery/2)))
		in := ingest{sent: time.Now()}
		status, resp, err := ilg.post("/v1/ingest", fmt.Sprintf(ingestBody, i+1))
		in.done = time.Now()
		var r ingestResponse
		ok := err == nil && status == http.StatusOK && json.Unmarshal(resp, &r) == nil
		b.ck.check(ok && r.Epoch == epoch+1 && r.SnapshotSeq == seq+1,
			"ingest %d: status %d, err %v, epoch %d (want %d), seq %d (want %d)", i, status, err, r.Epoch, epoch+1, r.SnapshotSeq, seq+1)
		epoch, seq = epoch+1, seq+1
		seen, err := statsSeq(ilg)
		in.visible = time.Now()
		b.ck.check(err == nil && seen >= seq, "ingest %d: /admin/stats reports snapshot_seq %d (want %d), err %v", i, seen, seq, err)
		b.tr.add(root, "api", "POST /v1/ingest", in.sent, in.done)
		ingests = append(ingests, in)
	}
	wg.Wait()

	var visible, post []float64
	for _, in := range ingests {
		visible = append(visible, ms(in.visible.Sub(in.sent)))
		post = append(post, ms(in.done.Sub(in.sent)))
	}
	b.layer.set("api.ingest_visible_ms", "ms", median(visible))
	b.layer.set("api.ingest_visible_p90_ms", "ms", quantile(visible, 0.9))
	b.layer.set("api.read_p99_ms.churn", "ms", quantile(latencies(reads, ""), 0.99))
	b.layer.set("api.ingest_ms", "ms", median(post))
	blocked := 0
	for _, s := range reads {
		for _, in := range ingests {
			if s.sent.Before(in.done) && s.done.After(in.sent) {
				blocked++
				break
			}
		}
	}
	b.layer.set("api.read_blocked_frac", "ratio", float64(blocked)/float64(len(reads)))
	return reads
}

// statsSeq returns the snapshot_seq GET /admin/stats reports.
func statsSeq(lg *loadgen) (int64, error) {
	status, body, err := lg.get("/admin/stats")
	if err != nil {
		return 0, err
	}
	var r struct {
		Seq int64 `json:"snapshot_seq"`
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("status %d", status)
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, err
	}
	return r.Seq, nil
}

// sortedMetros returns a result set's metros in ascending order.
func sortedMetros(results map[int]*metascritic.Result) []int {
	var ms []int
	for m := range results {
		ms = append(ms, m)
	}
	sort.Ints(ms)
	return ms
}
