package main

import (
	"bytes"
	"crypto/sha256"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"efl/internal/cluster"
	"efl/internal/service"
)

// serveTrace records the serve workload's spans from outside the
// program: a handler middleware on every node, a timing cluster.Store
// around the shared DirStore and a timing RoundTripper on the forwarding
// client. A request's spans share the client's request ID, carried across
// the forward hop in a header the RoundTripper adds.
type serveTrace struct {
	tr *tracer

	mu sync.Mutex
	// keys maps a request body's SHA-256 to its cache key, learnt through
	// Server.PlanRequest during set-up.
	keys map[[32]byte]string
	// inflight holds, per node, the handler spans currently open for
	// each cache key (the store and forward spans find their parent here).
	inflight []map[string][]openHandler
}

type openHandler struct {
	span int
	req  int64
}

func newServeTrace(tr *tracer) *serveTrace {
	st := &serveTrace{tr: tr, keys: map[[32]byte]string{}}
	for i := 0; i < serveNodes; i++ {
		st.inflight = append(st.inflight, map[string][]openHandler{})
	}
	return st
}

// learnKeys plans every catalogue body once to learn its cache key.
func (st *serveTrace) learnKeys(svc *service.Server, cat *serveCatalogue) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, k := range cat.keys {
		sum := sha256.Sum256(k.body)
		if _, ok := st.keys[sum]; ok {
			continue
		}
		if pl, err := svc.PlanRequest("/v1/estimate", k.body); err == nil {
			st.keys[sum] = pl.Key
		}
	}
}

func (st *serveTrace) keyOf(body []byte) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.keys[sha256.Sum256(body)]
}

// open registers a handler span as in flight on node for key.
func (st *serveTrace) open(node int, key string, h openHandler) {
	st.mu.Lock()
	st.inflight[node][key] = append(st.inflight[node][key], h)
	st.mu.Unlock()
}

func (st *serveTrace) close(node int, key string, span int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	hs := st.inflight[node][key]
	for i, h := range hs {
		if h.span == span {
			st.inflight[node][key] = append(hs[:i:i], hs[i+1:]...)
			return
		}
	}
}

// parent returns the newest open handler on node for key (span -1 when
// there is none).
func (st *serveTrace) parent(node int, key string) openHandler {
	st.mu.Lock()
	defer st.mu.Unlock()
	hs := st.inflight[node][key]
	if len(hs) == 0 {
		return openHandler{span: -1}
	}
	return hs[len(hs)-1]
}

// middleware times node's handler for every compute request carrying a
// request ID, tagging the span with the answer's X-Cache and route.
func (st *serveTrace) middleware(node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			parent = -1
		}
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		key := st.keyOf(body)
		id := st.tr.begin("handler", parent, req, node)
		st.open(node, key, openHandler{span: id, req: req})
		h.ServeHTTP(w, r)
		st.close(node, key, id)
		st.tr.end(id)
		st.tr.tag(id, w.Header().Get("X-Cache")+"/"+w.Header().Get(cluster.RouteHeader))
	})
}

// timedStore is a timing cluster.Store around the shared DirStore.
type timedStore struct {
	inner cluster.Store
	node  int
	st    *serveTrace
}

func (s *timedStore) span(name, key string) int {
	h := s.st.parent(s.node, key)
	return s.st.tr.begin(name, h.span, h.req, s.node)
}

func (s *timedStore) Get(key string) ([]byte, bool, error) {
	id := s.span("cluster.store.get", key)
	defer s.st.tr.end(id)
	return s.inner.Get(key)
}

func (s *timedStore) Put(key string, body []byte) error {
	id := s.span("cluster.store.put", key)
	defer s.st.tr.end(id)
	return s.inner.Put(key, body)
}

// timedTransport times forward hops. It finds the forwarding handler by
// the request body's key, and passes the request ID and the hop span on
// to the owner's middleware.
type timedTransport struct {
	base http.RoundTripper
	node int
	st   *serveTrace
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	var body []byte
	if r.GetBody != nil {
		if rc, err := r.GetBody(); err == nil {
			body, _ = io.ReadAll(rc)
			rc.Close()
		}
	}
	h := t.st.parent(t.node, t.st.keyOf(body))
	id := t.st.tr.begin("cluster.forward", h.span, h.req, t.node)
	r = r.Clone(r.Context())
	r.Header.Set(reqHeader, strconv.FormatInt(h.req, 10))
	r.Header.Set(spanHeader, strconv.Itoa(id))
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.st.tr.end(id)
		return nil, err
	}
	// The hop ends when the forwarder has read and closed the body.
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { t.st.tr.end(id) }}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.end)
	return err
}

// layers derives the serve per-layer metrics from the spans and checks
// that client latency reconciles: client = receiving handler + client/HTTP
// time, and a forwarded answer's receiving handler holds the hop, which
// holds the owner's handler. Time the trace cannot place at a node (a
// client span without a receiving handler, a hop without an owner
// handler) is unattributed.
func (st *serveTrace) layers(out *outcome) map[string]float64 {
	spans := st.tr.snapshot()
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	child := func(id int, name string) (span, bool) {
		for _, k := range kids[id] {
			if k.Name == name {
				return k, true
			}
		}
		return span{}, false
	}
	var (
		handlerHit, httpHit, handlerMiss, forward, storeGet, storePut []float64
		clientTotal, unattributed, httpTotal, hopHTTP, ownerTotal     time.Duration
	)
	for _, s := range spans {
		switch s.Name {
		case "client":
			clientTotal += s.dur()
			h, ok := child(s.ID, "handler")
			if !ok {
				unattributed += s.dur()
				continue
			}
			httpTotal += s.dur() - h.dur()
			xcache, _, _ := strings.Cut(h.Tag, "/")
			switch xcache {
			case "hit", "store":
				handlerHit = append(handlerHit, us(h.dur()))
				httpHit = append(httpHit, us(s.dur()-h.dur()))
			case "miss":
				handlerMiss = append(handlerMiss, ms(h.dur()))
			}
		case "cluster.forward":
			forward = append(forward, ms(s.dur()))
			if o, ok := child(s.ID, "handler"); ok {
				hopHTTP += s.dur() - o.dur()
				ownerTotal += o.dur()
			} else {
				unattributed += s.dur()
			}
		case "cluster.store.get":
			storeGet = append(storeGet, us(s.dur()))
		case "cluster.store.put":
			storePut = append(storePut, us(s.dur()))
		}
	}
	out.info["reconciliation_s"] = map[string]float64{
		"client_latency": clientTotal.Seconds(), "client_http": httpTotal.Seconds(),
		"receiving_handler": (clientTotal - httpTotal - unattributed).Seconds(),
		"forward_hop_http":  hopHTTP.Seconds(), "owner_handler": ownerTotal.Seconds(),
		"unattributed": unattributed.Seconds(),
	}
	m := map[string]float64{
		"service.handler.us.hit":  median(handlerHit),
		"service.http.us":         median(httpHit),
		"service.handler.ms.miss": median(handlerMiss),
		"cluster.forward.ms":      median(forward),
		"cluster.store.get_us":    median(storeGet),
		"cluster.store.put_us":    median(storePut),
	}
	if clientTotal > 0 {
		m["unattributed_share"] = unattributed.Seconds() / clientTotal.Seconds()
	}
	return m
}
