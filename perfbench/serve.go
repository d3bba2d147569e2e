package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"efl/internal/bench"
	"efl/internal/cluster"
	"efl/internal/isa"
	"efl/internal/mbpta"
	"efl/internal/runner"
	"efl/internal/service"
	"efl/internal/sim"
	"efl/internal/workload"
)

// The serve workload: a closed loop of two clients, one connection per
// node each, against a two-node fleet assembled the way eflserved's
// cluster mode does it. Every request is a converged /v1/estimate; key
// popularity is Zipf-like, so most answers come from a node's cache or
// the shared store and a minority run a campaign, some after a forward
// hop. Every pass builds a fresh fleet, so every pass sees the same
// misses.

// The request mix is assumed, not taken from observed traffic; README.md
// gives the reason for each value.
const (
	serveNodes    = 2
	serveClients  = 2
	serveRequests = 1500 // per client per pass
	serveSeeds    = 4    // request seeds per (program, config)
	serveZipfS    = 1.1
	// serveTraceShare is the share of requests that name a trace program;
	// popularity is Zipf-like within each class, so the class mix of the
	// hits does not depend on the seed.
	serveTraceShare = 0.25
	// serveCeiling is the service's default run ceiling. Requests omit
	// runs, so it applies and the stopping rule alone decides what a miss
	// costs; the catalogue's campaigns stop between 115 and 165 runs.
	serveCeiling = 300

	reqHeader  = "X-Bench-Req"
	spanHeader = "X-Bench-Span"
)

// serveKernels are the benchmark programs of the request catalogue.
var serveKernels = []string{"BM", "TL", "BF"}

// serveTraceSpecs are the generated trace programs of the catalogue,
// spanning a hot set that fits the LLC, a stream past it and a store-heavy
// mix. Their seeds come from the workload seed. 1600 records keep the
// replayed program under the ISA's 8191-instruction image limit.
var serveTraceSpecs = []workload.GenSpec{
	{Name: "hot-fit", Records: 1600, FootprintBytes: 16 << 10, Locality: 0.9, MeanGap: 60},
	{Name: "stream", Records: 1600, FootprintBytes: 96 << 10, Locality: 0.5, StrideBytes: 16, MeanGap: 60},
	{Name: "stores", Records: 1600, FootprintBytes: 32 << 10, Locality: 0.7, StoreFrac: 0.3, MeanGap: 60},
}

// serveConfigs are the request platforms: EFL and a CP partition.
func serveConfigs() []service.ConfigSpec {
	mid := int64(500)
	return []service.ConfigSpec{{MID: &mid}, {PartitionWays: []int{2, 2, 2, 2}}}
}

// serveKey is one distinct request of the catalogue.
type serveKey struct {
	class string // "benchmark" or "trace"
	label string
	body  []byte
	prog  int // index into the catalogue's program list
	cfg   int
	seed  uint64
}

// serveCatalogue is the seeded request catalogue.
type serveCatalogue struct {
	kernels []string
	traces  [][]byte // generated trace bytes
	hashes  []string // their SHA-256
	keys    []serveKey
}

// newServeCatalogue builds pass's catalogue. The traces are the same in
// every pass; the request seeds are drawn per pass, so every pass misses
// on a fresh set of keys and the passes average over independent draws.
func newServeCatalogue(seed uint64, pass int, tiny bool) (*serveCatalogue, error) {
	specs := serveTraceSpecs
	kernels := serveKernels
	nSeeds := serveSeeds
	if tiny {
		specs, kernels, nSeeds = specs[:1], kernels[:1], 1
	}
	c := &serveCatalogue{kernels: kernels}
	for i, gs := range specs {
		gs.Seed = runner.Seed(seed, "serve/trace/"+strconv.Itoa(i))
		data, err := gs.Generate()
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(data)
		c.traces = append(c.traces, data)
		c.hashes = append(c.hashes, hex.EncodeToString(sum[:]))
	}
	type program struct {
		class, label string
		spec         service.ProgramSpec
	}
	var progs []program
	for _, k := range kernels {
		progs = append(progs, program{"benchmark", k, service.ProgramSpec{Benchmark: k}})
	}
	for i, h := range c.hashes {
		progs = append(progs, program{"trace", specs[i].Name, service.ProgramSpec{TraceHash: h}})
	}
	for pi, p := range progs {
		for ci, cs := range serveConfigs() {
			for s := 0; s < nSeeds; s++ {
				rs := runner.Seed(seed, fmt.Sprintf("serve/seed/%d/%d", pass, s))
				body, err := json.Marshal(service.EstimateRequest{
					Program: p.spec, Config: cs, Seed: rs,
					Converge: true, SkipIID: true,
				})
				if err != nil {
					return nil, err
				}
				c.keys = append(c.keys, serveKey{class: p.class, label: fmt.Sprintf("%s/cfg%d/seed%d", p.label, ci, s),
					body: body, prog: pi, cfg: ci, seed: rs})
			}
		}
	}
	return c, nil
}

// serveRequest is one planned request: a key and the node it goes to.
type serveRequest struct{ key, node int }

// serveLists draws each client's seeded request list: a class (trace with
// probability serveTraceShare), a Zipf rank over a seeded permutation of
// that class's keys, and a seeded node.
func serveLists(seed uint64, pass int, keys []serveKey, requests int) [][]serveRequest {
	rng := rand.New(rand.NewSource(int64(runner.Seed(seed, fmt.Sprintf("serve/lists/%d", pass)))))
	byClass := map[string][]int{}
	for i, k := range keys {
		byClass[k.class] = append(byClass[k.class], i)
	}
	zipfs := map[string]*rand.Zipf{}
	for class, idx := range byClass {
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		zipfs[class] = rand.NewZipf(rng, serveZipfS, 1, uint64(len(idx)-1))
	}
	lists := make([][]serveRequest, serveClients)
	for c := range lists {
		for i := 0; i < requests; i++ {
			class := "benchmark"
			if rng.Float64() < serveTraceShare {
				class = "trace"
			}
			key := byClass[class][zipfs[class].Uint64()]
			lists[c] = append(lists[c], serveRequest{key: key, node: rng.Intn(serveNodes)})
		}
	}
	return lists
}

// answer is one client-observed response.
type answer struct {
	key     int
	status  int
	xcache  string
	route   string
	latency time.Duration
	body    []byte
}

// fleet is one pass's two-node estimation fleet.
type fleet struct {
	dir   string
	svcs  []*service.Server
	nodes []*cluster.Node
	srvs  []*http.Server
	urls  []string
	wg    sync.WaitGroup
}

// startFleet assembles the fleet like eflserved's cluster mode: a shared
// DirStore (also the trace store), service.New with one worker per node,
// cluster.NewNode on loopback listeners. In a traced run the nodes get a
// timing store, a timing forward client and a timing handler middleware.
func startFleet(dir string, st *serveTrace) (*fleet, error) {
	f := &fleet{dir: dir}
	store, err := cluster.NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	lns := make([]net.Listener, serveNodes)
	peers := map[string]string{}
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			for _, ln := range lns[:i] {
				ln.Close()
			}
			return nil, err
		}
		f.urls = append(f.urls, "http://"+lns[i].Addr().String())
		peers[nodeID(i)] = f.urls[i]
	}
	for i := range lns {
		svc := service.New(service.Options{Workers: 1, TraceStore: store})
		opts := cluster.Options{ID: nodeID(i), Peers: peers, Service: svc, Store: store}
		if st != nil {
			opts.Store = &timedStore{inner: store, node: i, st: st}
			opts.Client = &http.Client{Transport: &timedTransport{base: forwardTransport(), node: i, st: st}}
		}
		node, err := cluster.NewNode(opts)
		if err != nil {
			svc.Close()
			for _, ln := range lns[i:] {
				ln.Close()
			}
			f.close()
			return nil, err
		}
		var h http.Handler = node.Handler()
		if st != nil {
			h = st.middleware(i, h)
		}
		srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		f.svcs, f.nodes, f.srvs = append(f.svcs, svc), append(f.nodes, node), append(f.srvs, srv)
		f.wg.Add(1)
		go func(ln net.Listener) {
			defer f.wg.Done()
			srv.Serve(ln)
		}(lns[i])
	}
	return f, nil
}

// forwardTransport is configured like cluster.NewNode's default forwarding
// client, so the timing wrapper is all a traced fleet changes.
func forwardTransport() *http.Transport {
	return &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
		ResponseHeaderTimeout: 6 * time.Minute,
	}
}

func nodeID(i int) string { return "n" + strconv.Itoa(i) }

// close stops the servers, drains the services and removes the store.
func (f *fleet) close() {
	for _, s := range f.srvs {
		s.Close()
	}
	f.wg.Wait()
	for _, s := range f.svcs {
		s.Close()
	}
	os.RemoveAll(f.dir)
}

// snapshot sums the fleet's service and routing counters.
type fleetCounters struct {
	hits, misses, coalesced uint64
	busy                    float64
	routes                  map[string]uint64
}

func (f *fleet) counters() fleetCounters {
	c := fleetCounters{routes: map[string]uint64{}}
	for _, n := range f.nodes {
		m := n.Snapshot()
		c.hits += m.Service.Cache.Hits
		c.misses += m.Service.Cache.Misses
		c.coalesced += m.Service.Cache.Coalesced
		for _, w := range m.Service.Workers {
			c.busy += w.BusySeconds
		}
		for r, v := range m.Routes {
			c.routes[r] += v
		}
	}
	return c
}

func (c *fleetCounters) add(d fleetCounters) {
	c.hits += d.hits
	c.misses += d.misses
	c.coalesced += d.coalesced
	c.busy += d.busy
	for r, v := range d.routes {
		c.routes[r] += v
	}
}

func (c fleetCounters) minus(b fleetCounters) fleetCounters {
	d := fleetCounters{hits: c.hits - b.hits, misses: c.misses - b.misses, coalesced: c.coalesced - b.coalesced,
		busy: c.busy - b.busy, routes: map[string]uint64{}}
	for r, v := range c.routes {
		d.routes[r] = v - b.routes[r]
	}
	return d
}

// post sends one request and reads the whole answer.
func post(client *http.Client, url string, body []byte, hdr map[string]string) (answer, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		return answer{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return answer{}, err
	}
	return answer{status: resp.StatusCode, xcache: resp.Header.Get("X-Cache"),
		route: resp.Header.Get(cluster.RouteHeader), body: data}, nil
}

// prepare uploads the traces and warms every node's worker pool with one
// short campaign per platform (served locally through the hop header), so
// lazy platform construction is done before timing.
func (f *fleet) prepare(cat *serveCatalogue, client *http.Client) error {
	for i, data := range cat.traces {
		a, err := post(client, f.urls[0]+"/v1/trace", data, nil)
		if err != nil {
			return err
		}
		var up service.TraceUploadResponse
		if a.status != http.StatusOK || json.Unmarshal(a.body, &up) != nil || up.TraceHash != cat.hashes[i] {
			return fmt.Errorf("trace upload %d: HTTP %d %s", i, a.status, a.body)
		}
	}
	// The pools key lockstep batches by platform and record a program's
	// trace per program value, and every request builds its program anew,
	// so one campaign per platform warms all there is to warm.
	var warm [][]byte
	seen := map[int]bool{}
	for _, k := range cat.keys {
		if seen[k.cfg] {
			continue
		}
		seen[k.cfg] = true
		var req service.EstimateRequest
		if err := json.Unmarshal(k.body, &req); err != nil {
			return err
		}
		req.Seed, req.Runs = 0x3a3a, 40
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		warm = append(warm, b)
	}
	errs := make([]error, serveNodes)
	var wg sync.WaitGroup
	for n := 0; n < serveNodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c := &http.Client{Transport: &http.Transport{}}
			defer c.CloseIdleConnections()
			for _, b := range warm {
				a, err := post(c, f.urls[n]+"/v1/estimate", b, map[string]string{cluster.HopHeader: "warmup"})
				if err == nil && a.status != http.StatusOK {
					err = fmt.Errorf("warm-up on %s: HTTP %d %s", nodeID(n), a.status, a.body)
				}
				if err != nil {
					errs[n] = err
					return
				}
			}
		}(n)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// closedLoop runs pass's request lists, one client goroutine per list,
// each sending its next request only when the previous one is answered.
func closedLoop(f *fleet, cat *serveCatalogue, lists [][]serveRequest, pass int, tr *tracer) ([]answer, error) {
	results := make([][]answer, len(lists))
	errs := make([]error, len(lists))
	var wg sync.WaitGroup
	for c := range lists {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			for i, r := range lists[c] {
				reqID := int64(pass)<<32 | int64(c)<<24 | int64(i+1)
				sp := tr.begin("client", -1, reqID, c)
				hdr := map[string]string{}
				if sp >= 0 {
					hdr[reqHeader] = strconv.FormatInt(reqID, 10)
					hdr[spanHeader] = strconv.Itoa(sp)
				}
				s := time.Now()
				a, err := post(client, f.urls[r.node]+"/v1/estimate", cat.keys[r.key].body, hdr)
				a.latency = time.Since(s)
				tr.end(sp)
				if err != nil {
					errs[c] = err
					return
				}
				a.key = r.key
				results[c] = append(results[c], a)
			}
		}(c)
	}
	wg.Wait()
	var all []answer
	for _, r := range results {
		all = append(all, r...)
	}
	return all, errors.Join(errs...)
}

// probeLayers times Server.PlanRequest on every distinct body and
// workload.Replay on every trace directly, three times each.
func probeLayers(svc *service.Server, cat *serveCatalogue, planUS map[string][]float64, replayUS *[]float64) error {
	for _, k := range cat.keys {
		for i := 0; i < 3; i++ {
			s := time.Now()
			if _, err := svc.PlanRequest("/v1/estimate", k.body); err != nil {
				return err
			}
			planUS[k.class] = append(planUS[k.class], us(time.Since(s)))
		}
	}
	for i, data := range cat.traces {
		for j := 0; j < 3; j++ {
			s := time.Now()
			if _, err := workload.Replay("trace:"+cat.hashes[i][:12], data); err != nil {
				return err
			}
			*replayUS = append(*replayUS, us(time.Since(s)))
		}
	}
	return nil
}

// directEstimate computes a converged estimate body the way the service
// does, without the service: the benchmark's own reference answer.
func directEstimate(prog *isa.Program, cfg sim.Config, seed uint64) ([]byte, error) {
	image, err := isa.Encode(prog)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(image)
	stream, err := mbpta.NewStream(mbpta.StreamOptions{
		Options: mbpta.Options{SkipIIDTests: true}, Prob: 1e-15, MinRuns: 100, MaxRuns: serveCeiling,
	})
	if err != nil {
		return nil, err
	}
	if _, err := sim.NewPool().StreamAnalysisTimes(context.Background(), cfg, prog, 8, serveCeiling,
		func(i int) uint64 { return runner.Seed(seed, "run/"+strconv.Itoa(i)) }, stream.Add); err != nil {
		return nil, err
	}
	times := stream.Times()
	res, err := mbpta.Analyze(times, mbpta.Options{SkipIIDTests: true})
	if err != nil {
		return nil, err
	}
	pw, err := res.PWCETE(1e-15)
	if err != nil {
		return nil, err
	}
	return json.Marshal(service.EstimateResponse{
		Program: prog.Name, ProgramSHA: hex.EncodeToString(sum[:]), Runs: len(times), Seed: seed,
		MaxObserved: res.MaxSeen, PWCET: map[string]float64{"1e-15": pw},
	})
}

// referenceBody computes key k's expected answer directly.
func referenceBody(cat *serveCatalogue, k serveKey) ([]byte, error) {
	var prog *isa.Program
	if k.class == "benchmark" {
		spec, err := bench.ByCode(cat.kernels[k.prog])
		if err != nil {
			return nil, err
		}
		prog = spec.Build()
	} else {
		t := k.prog - len(cat.kernels)
		var err error
		if prog, err = workload.Replay("trace:"+cat.hashes[t][:12], cat.traces[t]); err != nil {
			return nil, err
		}
	}
	cfg := sim.DefaultConfig()
	cs := serveConfigs()[k.cfg]
	if cs.MID != nil {
		cfg.MID = *cs.MID
	}
	if cs.PartitionWays != nil {
		cfg.PartitionWays = cs.PartitionWays
	}
	return directEstimate(prog, cfg, k.seed)
}

// checkReference compares a served body with the benchmark's own
// computation of the same request.
func checkReference(cat *serveCatalogue, k serveKey, body []byte) error {
	want, err := referenceBody(cat, k)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, body) {
		return fmt.Errorf("served body differs from the direct computation:\n  got  %s\n  want %s", body, want)
	}
	return nil
}

// checkBodies compares every 200 body for a key with the first one seen
// (across nodes, routes, repeats and passes) and returns one error per
// mismatching answer.
func checkBodies(first map[string][]byte, answers []answer, keys []serveKey) []error {
	var errs []error
	for _, a := range answers {
		if a.status != http.StatusOK {
			continue
		}
		if want, ok := first[keys[a.key].label]; !ok {
			first[keys[a.key].label] = a.body
		} else if !bytes.Equal(want, a.body) {
			errs = append(errs, fmt.Errorf("%s: body differs (x-cache %s, route %s)", keys[a.key].label, a.xcache, a.route))
		}
	}
	return errs
}

// servePass is one pass's set-up: its catalogue, its request lists and
// its prepared fleet.
type servePass struct {
	cat   *serveCatalogue
	lists [][]serveRequest
	fleet *fleet
}

// setupServe builds pass's catalogue and request lists, and starts and
// prepares a fresh fleet whose store lives in dir.
func setupServe(o options, st *serveTrace, pass, requests int, dir string) (*servePass, error) {
	cat, err := newServeCatalogue(o.seed, pass, o.tiny)
	if err != nil {
		return nil, err
	}
	lists := serveLists(o.seed, pass, cat.keys, requests)
	f, err := startFleet(dir, st)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{}}
	err = f.prepare(cat, client)
	client.CloseIdleConnections()
	if err != nil {
		f.close()
		return nil, err
	}
	if st != nil {
		// Trace bodies plan only once their traces are uploaded.
		st.learnKeys(f.svcs[0], cat)
	}
	return &servePass{cat: cat, lists: lists, fleet: f}, nil
}

func runServe(o options) (*outcome, error) {
	out := newOutcome()
	requests := serveRequests
	if o.tiny {
		requests = 40
	}
	var st *serveTrace
	if o.tracer != nil {
		st = newServeTrace(o.tracer)
	}

	var (
		setups            = setupTimer{samples: 15}
		answerRates       []float64
		missMS, hitMS     []float64
		answers, missRuns float64
		wall              float64
		cat0              *serveCatalogue
		first0            map[string][]byte
		counters          = fleetCounters{routes: map[string]uint64{}}
		planUS            = map[string][]float64{}
		replayUS          []float64
	)
	minPasses := 4
	passes := passCount(o, 6*time.Second, minPasses)
	for pass := 0; pass < passes; pass++ {
		for i := setups.before(o, pass, passes); i > 0; i-- {
			var sp *servePass
			err := setups.time(func() (err error) {
				sp, err = setupServe(o, st, pass, requests, filepath.Join(o.scratch, "store-setup"))
				return err
			})
			if err != nil {
				return nil, err
			}
			sp.fleet.close()
		}
		var sp *servePass
		err := setups.time(func() (err error) {
			sp, err = setupServe(o, st, pass, requests, filepath.Join(o.scratch, "store-"+strconv.Itoa(pass)))
			return err
		})
		if err != nil {
			return nil, err
		}
		cat, lists, f := sp.cat, sp.lists, sp.fleet
		first := map[string][]byte{}
		if pass == 0 {
			cat0, first0 = cat, first
		}
		before := f.counters()

		// Timed window: the closed loop.
		t0 := time.Now()
		got, err := closedLoop(f, cat, lists, pass, o.tracer)
		passWall := time.Since(t0).Seconds()
		if err != nil {
			f.close()
			return nil, err
		}

		// Untimed: per-layer probes on this fleet, then teardown.
		if st != nil {
			if err := probeLayers(f.svcs[0], cat, planUS, &replayUS); err != nil {
				f.close()
				return nil, err
			}
		}
		f.close()

		var passAnswers, passRuns float64
		for _, err := range checkBodies(first, got, cat.keys) {
			out.fail("%v", err)
		}
		for _, a := range got {
			out.attempted++
			switch {
			case a.status != http.StatusOK:
				out.fail("%s: HTTP %d %s", cat.keys[a.key].label, a.status, a.body)
				continue
			case a.route == cluster.RouteSteal:
				out.fail("%s: answered by a steal", cat.keys[a.key].label)
			}
			passAnswers++
			switch a.xcache {
			case "miss":
				missMS = append(missMS, ms(a.latency))
				var er service.EstimateResponse
				if err := json.Unmarshal(a.body, &er); err != nil {
					out.fail("%s: undecodable body: %v", cat.keys[a.key].label, err)
				}
				passRuns += float64(er.Runs)
			case "hit", "store":
				hitMS = append(hitMS, ms(a.latency))
			}
		}
		answerRates = append(answerRates, passAnswers/passWall)
		answers += passAnswers
		missRuns += passRuns
		wall += passWall
		counters.add(f.counters().minus(before))
	}

	guaranteedMiss := minPasses * len(cat0.keys) * 3 / 4
	guaranteedHit := minPasses * (serveClients*requests - len(cat0.keys))
	mp, hp := tailPercentile(guaranteedMiss), tailPercentile(guaranteedHit)
	setups.fill(out)
	// Throughputs are whole-run totals over the whole timed wall (see
	// batch.fillE2E).
	out.e2e["answers_per_s"] = answers / wall
	out.e2e["runs_per_s"] = missRuns / wall
	out.e2e["miss_p50_ms"] = median(missMS)
	out.e2e["miss_tail_ms"] = quantile(missMS, mp)
	out.e2e["hit_p50_ms"] = median(hitMS)
	out.e2e["hit_tail_ms"] = quantile(hitMS, hp)
	out.info["passes"] = passes
	out.info["answers_per_s_passes"] = answerRates
	out.info["miss_samples"] = len(missMS)
	out.info["miss_tail_percentile"] = mp
	out.info["hit_samples"] = len(hitMS)
	out.info["hit_tail_percentile"] = hp
	out.info["miss_ladder_ms"] = ladder(missMS)
	out.info["hit_ladder_ms"] = ladder(hitMS)
	out.info["coalesced"] = counters.coalesced
	out.info["routes"] = counters.routes

	// One body per class must match the benchmark's own computation.
	checkedClass := map[string]bool{}
	for _, k := range cat0.keys {
		body, ok := first0[k.label]
		if !ok || checkedClass[k.class] {
			continue
		}
		checkedClass[k.class] = true
		out.attempted++
		if err := checkReference(cat0, k, body); err != nil {
			out.fail("%s: %v", k.label, err)
		}
	}
	if len(checkedClass) < 2 {
		out.fail("only %d request classes answered", len(checkedClass))
	}
	if st == nil {
		return out, nil
	}

	// Per-layer metrics.
	layer := st.layers(out)
	for k, v := range layer {
		out.layer[k] = v
	}
	out.layer["service.plan.us.benchmark"] = median(planUS["benchmark"])
	out.layer["service.plan.us.trace"] = median(planUS["trace"])
	out.layer["workload.replay.us"] = median(replayUS)
	if missRuns > 0 {
		out.layer["sim.stream.us_per_run"] = counters.busy * 1e6 / missRuns
	}
	out.layer["service.worker.busy_share"] = counters.busy / (wall * serveNodes)
	if lookups := counters.hits + counters.misses + counters.coalesced; lookups > 0 {
		out.layer["service.cache.hit_ratio"] = float64(counters.hits) / float64(lookups)
	}
	out.layer["service.coalesced"] = float64(counters.coalesced)
	for _, r := range []string{cluster.RouteLocal, cluster.RouteForward, cluster.RouteStore, cluster.RouteSteal} {
		out.layer["cluster.route."+r] = float64(counters.routes[r])
	}
	return out, nil
}
