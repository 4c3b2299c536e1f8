package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/obs"
	"biasmit/internal/orchestrate"
	"biasmit/internal/profilestore"
	"biasmit/internal/server"
)

// serveMix is the serving workload: a closed loop of benchWorkers
// clients that each send their next request as soon as the previous one
// is answered, over passes of a request list. Every pass sends the same
// number of requests of each kind in a fresh order with fresh request
// seeds, so every pass does the same work and misses the result cache
// where its list says it should.
type serveMix struct {
	passRequests int // requests per pass
	// segment is how many requests the clients send between two
	// samples of the reference unit.
	segment int
	heavies int // melbourne requests per pass
	// freshRounds is how many fresh synchronous requests each 5-qubit
	// (machine, benchmark, policy) gets per pass. Each 5-qubit
	// (machine, benchmark) also gets one AIM request sent through
	// /v1/jobs; one forced re-characterization sits halfway through the
	// pass; every other position is a repeat of one of the last few
	// 5-qubit requests, which the result cache hits or coalesces.
	freshRounds int
	shots       int // every request's budget, 5-qubit and heavy alike
	sloMS       float64
	tailPct     float64 // the percentile req_tail_ms reports
	verifyCalls int     // served results re-run through the library
	setups      int
}

var serveMixConfig = serveMix{
	passRequests: 100,
	segment:      20,
	heavies:      2,
	freshRounds:  2,
	shots:        1024,
	sloMS:        250,
	tailPct:      99,
	verifyCalls:  6,
	setups:       12,
}

var (
	fiveQMachines = []string{"ibmqx2", "ibmqx4"}
	fiveQBenches  = []string{"bv-4A", "bv-4B", "qaoa-4A", "qaoa-4B"}
	policies      = []string{"baseline", "sim", "aim"}
)

// allOutcomes makes a response list every outcome of a register up to
// five bits wide, so its counts can be totalled.
const allOutcomes = 32

// profileKeys are the AIM profiles serve-mix uses: both 5-qubit
// machines at the widths of the benchmarks (qaoa-4x: 4, bv-4x: 5).
var profileKeys = []profilestore.Key{
	{Machine: "ibmqx2", Width: 4, Method: "brute"},
	{Machine: "ibmqx2", Width: 5, Method: "brute"},
	{Machine: "ibmqx4", Width: 4, Method: "brute"},
	{Machine: "ibmqx4", Width: 5, Method: "brute"},
}

const (
	reqSync  = "mitigate"
	reqHeavy = "heavy"
	reqJob   = "job"
	reqChar  = "characterize"
)

type serveReq struct {
	idx  int // position in its pass
	kind string
	mit  *api.MitigateRequest
	char *api.CharacterizeRequest
	key  string // canonical mitigate body: the result-cache identity
}

// slot is one position of the request list's shape.
type slot struct {
	kind string
	mit  *api.MitigateRequest // a fresh request, without its seed
	// repeatOf is the earlier position a repeat copies, or -1.
	repeatOf int
}

// shape lays out a pass's request list: the fresh requests in a random
// order, repeats spread among them, each copying one of the last eight
// 5-qubit requests before it, and the re-characterization at the middle
// position.
func (c serveMix) shape(rng *rand.Rand) []slot {
	mk := func(kind, machine, bench, policy string) slot {
		return slot{kind: kind, repeatOf: -1, mit: &api.MitigateRequest{
			Machine: machine, Benchmark: bench, Policy: policy, Shots: c.shots, Top: allOutcomes,
		}}
	}
	var fresh []slot
	for h := 0; h < c.heavies; h++ {
		// One heavy shape, so the tail it sets does not depend on which
		// shapes a seed happens to draw.
		fresh = append(fresh, mk(reqHeavy, "ibmq-melbourne", "bv-4A", "sim"))
	}
	for _, m := range fiveQMachines {
		for _, b := range fiveQBenches {
			fresh = append(fresh, mk(reqJob, m, b, "aim")) // AIM jobs go through the micro-batcher
			for _, pol := range policies {
				for k := 0; k < c.freshRounds; k++ {
					fresh = append(fresh, mk(reqSync, m, b, pol))
				}
			}
		}
	}
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	repeats := c.passRequests - 1 - len(fresh)
	out := make([]slot, 0, c.passRequests)
	var history []int // positions of 5-qubit requests
	for len(out) < c.passRequests-1 {
		if len(history) > 0 && (len(fresh) == 0 || rng.Intn(repeats+len(fresh)) < repeats) {
			recent := history[max(0, len(history)-8):]
			out = append(out, slot{kind: reqSync, repeatOf: recent[rng.Intn(len(recent))]})
			repeats--
			continue
		}
		if fresh[0].kind != reqHeavy {
			history = append(history, len(out))
		}
		out = append(out, fresh[0])
		fresh = fresh[1:]
	}
	mid := c.passRequests / 2
	for i := mid; i < len(out); i++ {
		if out[i].repeatOf >= mid {
			out[i].repeatOf++
		}
	}
	out = append(out[:mid], append([]slot{{kind: reqChar, repeatOf: -1}}, out[mid:]...)...)
	return out
}

// passList generates pass number pass of the request list from seed:
// its shape, the fresh requests' seeds, and the re-characterization
// forcing each profile key in turn.
func (c serveMix) passList(seed int64, pass int) []*serveReq {
	rng := rand.New(rand.NewSource(orchestrate.DeriveSeed(seed, pass)))
	shape := c.shape(rng)
	out := make([]*serveReq, len(shape))
	for i, sl := range shape {
		r := &serveReq{idx: i, kind: sl.kind}
		switch {
		case sl.kind == reqChar:
			k := profileKeys[pass%len(profileKeys)]
			r.char = &api.CharacterizeRequest{Machine: k.Machine, Method: k.Method, Qubits: k.Width, Force: true}
		case sl.repeatOf >= 0:
			cp := *out[sl.repeatOf].mit
			r.mit = &cp
		default:
			cp := *sl.mit
			cp.Seed = 1 + rng.Int63n(1<<31)
			r.mit = &cp
		}
		if r.mit != nil {
			raw, _ := json.Marshal(r.mit) // a plain struct: cannot fail
			r.key = string(raw)
		}
		out[i] = r
	}
	return out
}

// serveEnv is one in-process server on a loopback listener with the
// benchmark's HTTP client.
type serveEnv struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startServer starts a server configured as cmd/biasmitd is with no
// flags (result cache on, -max-jobs 2, a 25ms batch window, 2048
// profile shots), with logs discarded and job-level workers fixed at
// benchWorkers.
func startServer() (*serveEnv, error) {
	srv := server.New(server.Config{
		Workers:           benchWorkers(),
		MaxJobs:           2,
		DefaultTimeout:    60 * time.Second,
		MaxTimeout:        5 * time.Minute,
		MaxShots:          1 << 20,
		ProfileShots:      2048,
		ProfileTTL:        30 * time.Minute,
		Seed:              1,
		RetryAttempts:     4,
		RetryBaseDelay:    50 * time.Millisecond,
		BreakerThreshold:  5,
		BreakerCooldown:   30 * time.Second,
		JobWorkers:        2,
		JobBatchWindow:    25 * time.Millisecond,
		JobQuota:          64,
		QueueTimeout:      100 * time.Millisecond,
		BrownoutDwellDown: 2 * time.Second,
		BrownoutDwellUp:   5 * time.Second,
		RetryBudget:       0.1,
		WatchdogStall:     30 * time.Second,
		ResultCache:       true,
		ResultCacheSize:   1024,
		Logger:            obs.NewLogger(io.Discard, obs.LevelInfo),
		TraceBuffer:       256,
		SlowRequest:       500 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     benchWorkers(),
			MaxIdleConnsPerHost: benchWorkers(),
			DisableCompression:  true,
		}},
		served: make(chan error, 1),
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// close shuts the listener and the job queue down and waits for both.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // a timeout here leaves nothing to do but exit
	<-e.served
	e.srv.DrainJobs(ctx)
	e.client.CloseIdleConnections()
}

// post sends a JSON body and returns the status and response body.
func (e *serveEnv) post(ctx context.Context, path string, body any, traceID string) (int, []byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	return e.do(ctx, http.MethodPost, path, raw, traceID, nil)
}

func (e *serveEnv) do(ctx context.Context, method, path string, body []byte, traceID string, gotConn *time.Time) (int, []byte, error) {
	if gotConn != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn: func(httptrace.GotConnInfo) { *gotConn = time.Now() },
		})
	}
	req, err := http.NewRequestWithContext(ctx, method, e.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceID != "" {
		req.Header.Set(api.TraceHeader, traceID)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// serveSetup starts a server, learns serve-mix's AIM profiles through
// POST /v1/characterize, and warms every machine with one request whose
// seed lies outside the request lists' seed range.
func (c serveMix) serveSetup(ctx context.Context) (*serveEnv, error) {
	e, err := startServer()
	if err != nil {
		return nil, err
	}
	for _, k := range profileKeys {
		st, body, err := e.post(ctx, "/v1/characterize", api.CharacterizeRequest{Machine: k.Machine, Method: k.Method, Qubits: k.Width}, "")
		if err == nil && st != http.StatusOK {
			err = fmt.Errorf("characterize %s: status %d: %s", k, st, body)
		}
		if err != nil {
			e.close()
			return nil, err
		}
	}
	for i, m := range append(append([]string(nil), fiveQMachines...), "ibmq-melbourne") {
		st, body, err := e.post(ctx, "/v1/mitigate", api.MitigateRequest{
			Machine: m, Benchmark: "bv-4A", Policy: "sim", Shots: 256, Seed: 1<<40 + int64(i),
		}, "")
		if err == nil && st != http.StatusOK {
			err = fmt.Errorf("warm-up on %s: status %d: %s", m, st, body)
		}
		if err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

type serveResult struct {
	req     *serveReq
	lag     time.Duration // from the client's previous answer to this send
	latency time.Duration // from send to answer
	service time.Duration // from connection to answer (sync requests)
	body    []byte        // the mitigate response (a job's result for async), until checked
	resp    *api.MitigateResponse
	// cacheSum digests the response minus what the server stamps per
	// request; replays of one computation share it.
	cacheSum [sha256.Size]byte
	traceID  string
	span     *activeSpan // the client-side request span of a traced run
	err      error
}

// fire sends one request and waits for its answer.
func (e *serveEnv) fire(ctx context.Context, r *serveReq, traceID string) serveResult {
	res := serveResult{req: r, traceID: traceID}
	sent := time.Now()
	var (
		gotConn time.Time
		st      int
	)
	switch r.kind {
	case reqSync, reqHeavy:
		raw, _ := json.Marshal(r.mit) // a plain struct: cannot fail
		st, res.body, res.err = e.do(ctx, http.MethodPost, "/v1/mitigate", raw, traceID, &gotConn)
	case reqJob:
		st = http.StatusOK // runJob checks its own statuses
		res.body, res.err = e.runJob(ctx, r.mit, traceID)
	case reqChar:
		st, res.body, res.err = e.post(ctx, "/v1/characterize", r.char, traceID)
	}
	if res.err == nil && st != http.StatusOK {
		res.err = fmt.Errorf("status %d: %s", st, firstLine(res.body))
	}
	done := time.Now()
	res.latency = done.Sub(sent)
	if !gotConn.IsZero() {
		res.service = done.Sub(gotConn)
	}
	if res.err == nil && r.mit != nil {
		res.resp, res.err = checkMitigate(res.body, r.mit)
	}
	if res.err == nil && res.resp != nil {
		res.cacheSum, res.err = cacheBody(res.body)
	}
	res.body = nil // keep the load generator's own heap out of peak_heap_mb
	return res
}

// runJob submits a mitigate job and long-polls it to a terminal state,
// returning its result.
func (e *serveEnv) runJob(ctx context.Context, m *api.MitigateRequest, traceID string) ([]byte, error) {
	st, body, err := e.post(ctx, "/v1/jobs", api.JobSubmitRequest{Type: api.JobTypeMitigate, Mitigate: m}, traceID)
	if err != nil {
		return nil, err
	}
	if st != http.StatusAccepted {
		return nil, fmt.Errorf("submit: status %d: %s", st, firstLine(body))
	}
	var jr api.JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	for {
		st, body, err = e.do(ctx, http.MethodGet, "/v1/jobs/"+jr.Job.ID+"?wait=30s", nil, "", nil)
		if err != nil {
			return nil, err
		}
		if st != http.StatusOK {
			return nil, fmt.Errorf("poll: status %d: %s", st, firstLine(body))
		}
		if err := json.Unmarshal(body, &jr); err != nil {
			return nil, fmt.Errorf("poll: %w", err)
		}
		switch jr.Job.State {
		case api.JobStateDone:
			return jr.Result, nil
		case api.JobStateFailed, api.JobStateCancelled:
			return nil, fmt.Errorf("job %s %s: %v", jr.Job.ID, jr.Job.State, jr.Job.Error)
		}
	}
}

func firstLine(b []byte) string {
	s := string(b)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// checkMitigate parses a mitigate response and checks it answers req in
// full: the policy asked for, undegraded, and every outcome listed with
// counts totalling the shot budget.
func checkMitigate(body []byte, req *api.MitigateRequest) (*api.MitigateResponse, error) {
	var resp api.MitigateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	switch {
	case resp.APIVersion != api.Version:
		return nil, fmt.Errorf("api_version %q", resp.APIVersion)
	case resp.ServedPolicy != req.Policy || resp.Policy != req.Policy:
		return nil, fmt.Errorf("served %q for policy %q", resp.ServedPolicy, req.Policy)
	case resp.Degraded || resp.BrownoutTier != 0:
		return nil, fmt.Errorf("degraded response")
	case resp.Shots != req.Shots || resp.Machine != req.Machine:
		return nil, fmt.Errorf("answered %d shots on %s", resp.Shots, resp.Machine)
	case resp.Metrics == nil:
		return nil, fmt.Errorf("no metrics")
	case resp.DistinctOutcomes != len(resp.Outcomes):
		return nil, fmt.Errorf("%d of %d outcomes listed", len(resp.Outcomes), resp.DistinctOutcomes)
	}
	total := 0
	for _, o := range resp.Outcomes {
		total += o.Count
	}
	if total != req.Shots {
		return nil, fmt.Errorf("counts total %d, want the %d-shot budget", total, req.Shots)
	}
	return &resp, nil
}

// cacheBody digests a mitigate response stripped of what the server
// stamps per request — the envelope and the cache flags — leaving the
// bytes the result cache stores.
func cacheBody(body []byte) ([sha256.Size]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return [sha256.Size]byte{}, err
	}
	for _, k := range []string{"api_version", "trace_id", "cache_hit", "coalesced"} {
		delete(m, k)
	}
	raw, err := json.Marshal(m) // map keys marshal sorted
	return sha256.Sum256(raw), err
}

// checkCacheReplays requires every cache hit or coalesced answer to
// equal, minus envelope and cache flags, an answer that computed the
// same request. It marks offenders failed and returns how many it
// checked.
func checkCacheReplays(results []serveResult) (int, []string) {
	computed := map[string]map[[sha256.Size]byte]bool{}
	for _, r := range results {
		if r.err != nil || r.resp == nil || r.resp.CacheHit || r.resp.Coalesced {
			continue
		}
		if computed[r.req.key] == nil {
			computed[r.req.key] = map[[sha256.Size]byte]bool{}
		}
		computed[r.req.key][r.cacheSum] = true
	}
	var bad []string
	n := 0
	for i := range results {
		r := &results[i]
		if r.err != nil || r.resp == nil || !(r.resp.CacheHit || r.resp.Coalesced) {
			continue
		}
		n++
		if !computed[r.req.key][r.cacheSum] {
			r.err = fmt.Errorf("cache replay (hit=%v coalesced=%v): no computed answer matches", r.resp.CacheHit, r.resp.Coalesced)
			bad = append(bad, fmt.Sprintf("request %d: %v", r.req.idx, r.err))
		}
	}
	return n, bad
}

// scrapeMetrics reads the server's unlabelled /metrics samples.
func (e *serveEnv) scrapeMetrics(ctx context.Context) (map[string]float64, error) {
	st, body, err := e.do(ctx, http.MethodGet, "/metrics", nil, "", nil)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", st)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// traceLog accumulates the server's /debug/traces entries by trace ID.
type traceLog struct {
	mu      sync.Mutex
	entries map[string][]api.TraceEntry
	seen    map[string]bool
}

func (t *traceLog) poll(ctx context.Context, e *serveEnv) error {
	st, body, err := e.do(ctx, http.MethodGet, "/debug/traces?limit=256", nil, "", nil)
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("/debug/traces: status %d", st)
	}
	var tr api.TracesResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, en := range tr.Traces {
		id := en.TraceID + "|" + en.Route + "|" + en.Start.String()
		if t.seen[id] {
			continue
		}
		t.seen[id] = true
		t.entries[en.TraceID] = append(t.entries[en.TraceID], en)
	}
	return nil
}

// serveRun is a closed-loop run of passes against one server.
type serveRun struct {
	// pass0 holds pass 0's results, which verifyLibrary re-runs, and
	// traced the traced passes' results, which servingLayers joins to
	// the server's traces. Every other pass is tallied and dropped, so
	// the load generator's heap does not grow with the number of passes.
	pass0, traced      []serveResult
	untracedS, tracedS []float64 // pass wall times
	// untracedCPU is each untraced pass's process CPU in µs, and
	// untracedLat their requests' latencies in ms.
	untracedCPU []float64
	untracedLat []float64
	passShots   int64 // shots a pass's answers carry
	latByKind   map[string][]float64
	psts        []float64
	aimPST      map[string][]float64 // by machine/benchmark
	basePST     map[string][]float64
	sloOK       int
	ref         *speedRef
	cacheDiff   map[string]float64 // /metrics deltas over the run
	storeDiff   profilestore.Stats
	traces      *traceLog
	env         *serveEnv
	checked     int // cache replays checked
}

// fireAll sends reqs from benchWorkers closed-loop clients, each
// sending its next request as soon as the previous one is answered, and
// stores each answer at its request's index in results. With traced set,
// each request sends an X-Trace-Id and gets a client-side span.
func (e *serveEnv) fireAll(ctx context.Context, reqs []*serveReq, results []serveResult, tr *tracer, traced bool) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for k := 0; k < benchWorkers(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := time.Now()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				lag := time.Since(last)
				rctx, traceID := ctx, ""
				var sp *activeSpan
				if traced {
					traceID = obs.NewTraceID()
					rctx, sp = tr.startTrace(ctx, "request", traceID)
					sp.tag("kind", r.kind)
				}
				res := e.fire(rctx, r, traceID)
				sp.end()
				res.lag, res.span = lag, sp
				results[i] = res
				last = time.Now()
			}
		}()
	}
	wg.Wait()
}

// drive runs passes of the request list against a set-up server for
// seconds (at least one pass; two when alternating), closing the server
// on error. With tr set, the passes traced(pass) selects send an
// X-Trace-Id per request, and the server's /debug/traces is polled and
// joined.
func (c serveMix) drive(ctx context.Context, env *serveEnv, seed int64, seconds float64, tr *tracer, traced func(pass int) bool, out *outcome) (*serveRun, error) {
	run := &serveRun{env: env, latByKind: map[string][]float64{}, aimPST: map[string][]float64{}, basePST: map[string][]float64{}}
	m0, err := env.scrapeMetrics(ctx)
	if err != nil {
		env.close()
		return nil, err
	}
	s0 := env.srv.Store().StatsSnapshot()

	var (
		polls    sync.WaitGroup
		stopPoll = make(chan struct{})
	)
	minPasses := 1
	if tr != nil {
		minPasses = 2
		run.traces = &traceLog{entries: map[string][]api.TraceEntry{}, seen: map[string]bool{}}
		polls.Add(1)
		go func() {
			defer polls.Done()
			// The server keeps its last 256 traces; poll well before a
			// pass can overrun them.
			tick := time.NewTicker(250 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopPoll:
					return
				case <-tick.C:
					_ = run.traces.poll(ctx, env) // the final poll below reports errors
				}
			}
		}()
	}

	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	run.ref = newSpeedRef()
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		reqs := c.passList(seed, pass)
		tracedPass := tr != nil && traced(pass)
		results := make([]serveResult, len(reqs))
		var (
			d   float64
			cpu time.Duration
		)
		for lo := 0; lo < len(reqs); lo += c.segment {
			// The reference unit runs between segments, while no
			// request is in flight and outside the pass's timing.
			run.ref.sample(2)
			hi := min(lo+c.segment, len(reqs))
			t0, cpu0 := time.Now(), cpuTime()
			env.fireAll(ctx, reqs[lo:hi], results[lo:hi], tr, tracedPass)
			d += time.Since(t0).Seconds()
			cpu += cpuTime() - cpu0
		}
		if tracedPass {
			run.tracedS = append(run.tracedS, d)
		} else {
			run.untracedS = append(run.untracedS, d)
			run.untracedCPU = append(run.untracedCPU, us(cpu))
			for _, r := range results {
				run.untracedLat = append(run.untracedLat, ms(r.latency))
			}
		}
		n, _ := checkCacheReplays(results)
		run.checked += n
		run.tally(results, c.sloMS, out)
		if pass == 0 {
			run.pass0 = results
			for _, r := range reqs {
				if r.mit != nil {
					run.passShots += int64(r.mit.Shots)
				}
			}
		}
		if tracedPass {
			for _, r := range results {
				if r.resp != nil && pass != 0 {
					r.resp.Outcomes, r.resp.Candidates, r.resp.Profile, r.resp.Layout, r.resp.Correct = nil, nil, nil, nil, nil
				}
			}
			run.traced = append(run.traced, results...)
		}
	}
	if tr != nil {
		close(stopPoll)
		polls.Wait()
		if err := run.traces.poll(ctx, env); err != nil {
			env.close()
			return nil, err
		}
	}
	m1, err := env.scrapeMetrics(ctx)
	if err != nil {
		env.close()
		return nil, err
	}
	run.cacheDiff = map[string]float64{}
	for k, v := range m1 {
		run.cacheDiff[k] = v - m0[k]
	}
	s1 := env.srv.Store().StatsSnapshot()
	run.storeDiff = profilestore.Stats{
		Hits:              s1.Hits - s0.Hits,
		Misses:            s1.Misses - s0.Misses,
		Joined:            s1.Joined - s0.Joined,
		Characterizations: s1.Characterizations - s0.Characterizations,
	}
	return run, nil
}
