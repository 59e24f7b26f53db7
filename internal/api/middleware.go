package api

// HTTP middleware for the serving daemon: a per-client token-bucket rate
// limiter, the daemon's overload guard.

import (
	"net"
	"net/http"
	"sync"
	"time"
)

type bucket struct {
	tokens   float64
	lastFill time.Time
	lastSeen time.Time
}

// RateLimiter is a per-client token bucket: each client (keyed by the
// host part of RemoteAddr) gets Burst tokens refilled at Rate per
// second; a request without a token gets 429 with a Retry-After hint.
type RateLimiter struct {
	// Rate is tokens per second; Burst the bucket capacity.
	Rate  float64
	Burst float64
	// Now is the clock (tests inject a fake one); nil means time.Now.
	Now func() time.Time

	mu      sync.Mutex
	clients map[string]*bucket
}

// NewRateLimiter builds a limiter allowing rate requests/second with the
// given burst.
func NewRateLimiter(rate, burst float64) *RateLimiter {
	return &RateLimiter{Rate: rate, Burst: burst, clients: map[string]*bucket{}}
}

// Allow consumes a token for the client, reporting whether one was
// available.
func (l *RateLimiter) Allow(client string) bool {
	now := time.Now
	if l.Now != nil {
		now = l.Now
	}
	t := now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.clients[client]
	if b == nil {
		// Opportunistic GC: drop clients idle for 10+ minutes before
		// admitting a new one, so the map cannot grow without bound.
		if len(l.clients) >= 1024 {
			for k, old := range l.clients {
				if t.Sub(old.lastSeen) > 10*time.Minute {
					delete(l.clients, k)
				}
			}
		}
		b = &bucket{tokens: l.Burst, lastFill: t}
		l.clients[client] = b
	}
	b.tokens += t.Sub(b.lastFill).Seconds() * l.Rate
	if b.tokens > l.Burst {
		b.tokens = l.Burst
	}
	b.lastFill = t
	b.lastSeen = t
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Wrap returns next guarded by the limiter: a request whose client has
// no token left gets 429 and never reaches next.
func (l *RateLimiter) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.Allow(clientKey(r)) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// clientKey extracts the client identity from a request.
func clientKey(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}
