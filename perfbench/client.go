package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"pgarm/internal/item"
	"pgarm/internal/serve"
	"pgarm/internal/txn"
)

const (
	recommendK = 5
	// cacheEntries sizes the server's recommendation cache like pgarm-serve's
	// load bench.
	cacheEntries = 4096
	// sampleEvery keeps one response in this many for the correctness check.
	sampleEvery = 32
	// minRequests is the fewest requests a run, or a batch serving
	// window, reports latency from: the p95 then has at least fifty samples
	// beyond it.
	minRequests = 1000
)

// ruleServer is a pgarm rule server with its cache on, listening on a
// loopback port.
type ruleServer struct {
	srv  *http.Server
	url  string
	done chan error
}

func startServer(h *serve.Holder) (*ruleServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := serve.NewServer(h, serve.NewCache(cacheEntries), serve.ServerOptions{})
	rs := &ruleServer{
		srv:  &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String() + "/v1/recommend",
		done: make(chan error, 1),
	}
	go func() { rs.done <- rs.srv.Serve(ln) }()
	return rs, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (rs *ruleServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := rs.srv.Shutdown(ctx)
	if serr := <-rs.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// basketMix is the request mix of pgarm-bench's serving load bench
// (internal/experiment/serve.go): baskets drawn with zipf skew (s = 1.2)
// over the run's own transactions, through a seeded permutation so the
// popular ones are spread across the data, cut to 12 items, k = 5. A small
// head of popular baskets repeats and hits the cache; the long tail misses.
type basketMix struct {
	zipf *rand.Zipf
	perm []int
	txns []txn.Transaction
}

func newBasketMix(seed int64, txns []txn.Transaction) *basketMix {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(txns)-1))
	return &basketMix{zipf: zipf, perm: rng.Perm(len(txns)), txns: txns}
}

// next returns the next request's basket and body.
func (m *basketMix) next() ([]item.Item, []byte) {
	basket := m.txns[m.perm[m.zipf.Uint64()]].Items
	if len(basket) > 12 {
		basket = basket[:12]
	}
	b, _ := json.Marshal(serve.RecommendRequest{Basket: basket, K: recommendK}) // plain struct; cannot fail
	return basket, b
}

// sample is one kept response with the basket that asked for it.
type sample struct {
	basket []item.Item
	resp   serve.RecommendResponse
}

// clientStats is what the closed-loop client saw, grouped into measured
// windows.
type clientStats struct {
	windows           []reqWindow
	attempted, failed int64
	ok, hits          int64
	samples           []sample
}

// reqWindow is one group of consecutive requests: their latencies (ms) and
// the span from the first one's start to the last one's end.
type reqWindow struct {
	lat         []float64
	first, last time.Time
}

// run posts the mix's requests one at a time — the next only after the
// previous answer is read — until done(requests so far) reports true.
// window(i, at) names the window of request i, sent at offset at from the
// start.
func (cs *clientStats) run(tr *tracer, url string, mix *basketMix, window func(i int, at time.Duration) int, done func(n int) bool) {
	transport := &http.Transport{MaxIdleConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	var ws []reqWindow
	start := time.Now()
	for i := 0; !done(i); i++ {
		basket, body := mix.next()
		t0 := time.Now()
		resp, err := post(client, url, body)
		t1 := time.Now()
		cs.attempted++
		if err != nil {
			cs.failed++
			fmt.Fprintf(os.Stderr, "perfbench: request: %v\n", err)
			continue
		}
		tr.record("client", "recommend", -1, t0, t1)
		w := window(i, t0.Sub(start))
		for len(ws) <= w {
			ws = append(ws, reqWindow{})
		}
		if len(ws[w].lat) == 0 {
			ws[w].first = t0
		}
		ws[w].lat = append(ws[w].lat, float64(t1.Sub(t0))/1e6)
		ws[w].last = t1
		cs.ok++
		if resp.Cached {
			cs.hits++
		}
		if i%sampleEvery == 0 {
			cs.samples = append(cs.samples, sample{basket, resp})
		}
	}
	tr.measured("client", start, time.Now())
	cs.windows = append(cs.windows, ws...)
}

func post(client *http.Client, url string, body []byte) (serve.RecommendResponse, error) {
	var out serve.RecommendResponse
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	decErr := json.NewDecoder(resp.Body).Decode(&out)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("status %d", resp.StatusCode)
	}
	return out, decErr
}

// warmUp posts the mix's next n requests unmeasured, so the connection,
// the handler and the cache's head are warm before the measured phase.
func warmUp(url string, mix *basketMix, n int) error {
	transport := &http.Transport{MaxIdleConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	for i := 0; i < n; i++ {
		_, body := mix.next()
		if _, err := post(client, url, body); err != nil {
			return fmt.Errorf("warm-up request: %w", err)
		}
	}
	return nil
}

// report folds the client's requests into the run's operation counts and
// sets the serving metrics: each window's requests give their own rate and
// percentiles, and the metrics are the medians over the windows, so one
// slow stretch of the host moves one window's figures rather than the run's.
// The tail metric is the p95: a few requests stalled by the host's scheduler
// move a window's p99 by several times, the p95 far less. Each window's p99
// is kept on the host line.
func (cs *clientStats) report(c *runCtx) {
	var qps, p50, p95, p99 []float64
	for _, w := range cs.windows {
		if len(w.lat) == 0 {
			continue
		}
		qps = append(qps, float64(len(w.lat))/w.last.Sub(w.first).Seconds())
		p50 = append(p50, quantile(w.lat, 0.50))
		p95 = append(p95, quantile(w.lat, 0.95))
		p99 = append(p99, quantile(w.lat, 0.99))
	}
	c.ops.attempted += cs.attempted
	c.ops.failed += cs.failed
	c.info["recommend_requests"] = cs.ok
	c.info["recommend_windows"] = len(qps)
	c.info["recommend_window_qps"] = append([]float64(nil), qps...)
	c.info["recommend_window_p95_ms"] = append([]float64(nil), p95...)
	c.info["recommend_window_p99_ms"] = append([]float64(nil), p99...)
	c.setE2E("recommend_qps", "1/s", median(qps))
	c.setE2E("recommend_p50_ms", "ms", median(p50))
	c.setE2E("recommend_p95_ms", "ms", median(p95))
	c.setLayer("serve.cache_hit_frac", "frac", ratio(float64(cs.hits), float64(cs.ok)))
}
