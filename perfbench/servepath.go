package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	encore "repro"
	"repro/internal/alert"
	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/inject"
	"repro/internal/serve"
	"repro/internal/sysimage"
	"repro/internal/telemetry"
)

// Serve workload sizes and load. The open-loop rate is about a sixth of
// the closed-loop capacity of a 2-vCPU machine, so that the open-loop p99
// stays well under 5 ms there.
const (
	servePopulations = 3 // corpus.EC2Targets populations
	serveErrors      = 4 // injected errors per image, the first a name typo
	openLoopRPS      = 600
	openLoopShare    = 0.5                    // share of --seconds run open-loop; the rest is closed-loop
	serveSlice       = 500 * time.Millisecond // load between reference bursts
	swapEvery        = 250 * time.Millisecond
	serveConns       = 2
	tracedRequests   = 1000 // requests per variant in the traced serve layers
	// serveSumTolerance bounds the serve sum check's residual. Serve's
	// layers are measured apart from the daemon, where they run hotter in
	// cache than in situ, so they leave 17-26% of a request unattributed on
	// a 2-vCPU machine.
	serveSumTolerance = 0.35
)

// serveReq is one scan request body with its expected report under each
// plan variant (index 0 for "A.*" versions, 1 for "B.*").
type serveReq struct {
	target
	body []byte
	ref  [2][]byte
}

// referenceReport renders the report a serial Plan.Check gives a freshly
// decoded copy of body, in the compact form a scan response embeds.
func referenceReport(plan *detect.Plan, body []byte) ([]byte, *detect.Report, error) {
	img, err := sysimage.LoadJSON(body)
	if err != nil {
		return nil, nil, err
	}
	rep, err := plan.Check(img)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := rep.AppendJSON(&buf); err != nil {
		return nil, nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), rep, nil
}

// daemon is one running `encore serve` equivalent and its alert pipeline.
type daemon struct {
	d      *serve.Daemon
	base   string
	alerts *alert.Pipeline
}

// conn is one client connection: the transport keeps at most one
// keep-alive connection open.
type conn struct {
	c   *http.Client
	buf bytes.Buffer
}

func newConn() *conn {
	return &conn{c: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// do sends one request and reads the whole response into c.buf.
func (c *conn) do(method, url string, body []byte, hdr ...string) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// upload swaps in a binary plan for app under version.
func (c *conn) upload(base, app, version string, plan []byte) error {
	code, err := c.do("POST", base+"/v1/profiles/"+app, plan, "X-Profile-Version", version)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("plan upload %s %s: status %d: %s", app, version, code, c.buf.String())
	}
	return err
}

// scan posts one image and verifies the response against the reference
// report of the plan version the response names.
func (c *conn) scan(base string, r *serveReq, hdr ...string) (ok bool, err error) {
	code, err := c.do("POST", base+"/v1/scan/"+r.app, r.body, hdr...)
	if err != nil {
		return false, err
	}
	return code == http.StatusOK && verifyScan(c.buf.Bytes(), r), nil
}

var (
	versionKey = []byte(`"planVersion":"`)
	reportKey  = []byte(`"report":`)
)

// verifyScan checks a /v1/scan response body: the embedded report must
// equal the reference for the plan variant named by planVersion.
func verifyScan(body []byte, r *serveReq) bool {
	i := bytes.Index(body, versionKey)
	j := bytes.Index(body, reportKey)
	if i < 0 || j < 0 || i+len(versionKey) >= len(body) {
		return false
	}
	variant := 0
	if body[i+len(versionKey)] == 'B' {
		variant = 1
	}
	rep := bytes.TrimRight(body[j+len(reportKey):], "\n")
	if len(rep) == 0 || rep[len(rep)-1] != '}' {
		return false
	}
	return sameReport(rep[:len(rep)-1], r.ref[variant])
}

var (
	emptyWarnings = []byte(`"warnings":[]}`)
	nullWarnings  = []byte(`"warnings":null}`)
)

// cleanPrefix strips the warnings list of a clean report's rendering.
func cleanPrefix(r []byte) ([]byte, bool) {
	for _, s := range [][]byte{emptyWarnings, nullWarnings} {
		if bytes.HasSuffix(r, s) {
			return r[:len(r)-len(s)], true
		}
	}
	return nil, false
}

// sameReport compares two compact report renderings. Report.AppendJSON
// spells a clean report's warnings as null or [] depending on the state
// of its scratch pool, so the two spellings compare equal here.
func sameReport(got, want []byte) bool {
	if bytes.Equal(got, want) {
		return true
	}
	g, ok1 := cleanPrefix(got)
	w, ok2 := cleanPrefix(want)
	return ok1 && ok2 && bytes.Equal(g, w)
}

// bootDaemon starts a daemon the way `encore serve` wires it, uploads
// every app's plan as version "A.0", and waits for /readyz to answer 200.
func bootDaemon(c *conn, rec *telemetry.Recorder, p *plans) (*daemon, error) {
	fw := encore.New()
	alerts, err := newPipeline(rec)
	if err != nil {
		return nil, err
	}
	d, err := serve.New(serve.Options{Addr: "127.0.0.1:0", Rec: rec, LoadPlan: fw.LoadPlan,
		Version: "perfbench", Alerts: alerts})
	if err != nil {
		alerts.Shutdown(context.Background())
		return nil, err
	}
	dm := &daemon{d: d, base: "http://" + d.Addr(), alerts: alerts}
	for _, app := range apps {
		if err := c.upload(dm.base, app, "A.0", p.bytes[app]); err != nil {
			dm.close()
			return nil, err
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		code, err := c.do("GET", dm.base+"/readyz", nil)
		if err == nil && code == http.StatusOK {
			return dm, nil
		}
		if time.Now().After(deadline) {
			dm.close()
			return nil, fmt.Errorf("daemon not ready: status %d, %v", code, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close drains and stops the daemon, which also drains its alerts.
func (dm *daemon) close() error { return dm.d.Close() }

// cliRecorder is the recorder `encore serve` runs with by default.
func cliRecorder() *telemetry.Recorder {
	rec := telemetry.New()
	rec.SetSpanCap(8192)
	return rec
}

// swapper hands out plan hot-swaps: each one flips one app (round-robin)
// to its other plan variant under a fresh version name.
type swapper struct {
	mu      sync.Mutex
	n       int
	variant map[string]int
	a, b    *plans
}

func newSwapper(a, b *plans) *swapper {
	return &swapper{variant: map[string]int{}, a: a, b: b}
}

func (s *swapper) next() (app, version string, plan []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	app = apps[s.n%len(apps)]
	s.n++
	v := 1 - s.variant[app]
	s.variant[app] = v
	if v == 0 {
		return app, fmt.Sprintf("A.%d", s.n), s.a.bytes[app]
	}
	return app, fmt.Sprintf("B.%d", s.n), s.b.bytes[app]
}

// loadStats collects one load phase's outcomes across client goroutines.
type loadStats struct {
	mu        sync.Mutex
	lat       []float64 // scan latency, ms
	attempted int64
	failed    int64
}

// add records one request: a scan's latency, or a plan swap, which only
// counts.
func (s *loadStats) add(latMs float64, swap, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if !ok {
		s.failed++
	}
	if !swap {
		s.lat = append(s.lat, latMs)
	}
}

// openLoop offers scans at openLoopRPS for dur, interleaving a plan swap
// every swapEvery, over len(conns) connections. The generator never waits
// for the daemon: it releases every request that has come due into an
// unbounded queue the connections drain, so a stall shows up as queueing.
// Latency is timed from each request's due time; lateAt and late return
// each request's due time (seconds since the phase started) and how late
// the generator released it (ms), for the stall guard.
func openLoop(dm *daemon, conns []*conn, reqs []serveReq, sw *swapper, dur time.Duration) (st *loadStats, lateAt, late []float64) {
	type job struct {
		due  time.Time
		req  *serveReq
		swap bool
	}
	n := int(openLoopRPS * dur.Seconds())
	swaps := int(dur/swapEvery) + 1
	jobs := make(chan job, n+swaps) // sized to every send, so release never blocks
	st = &loadStats{}
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for j := range jobs {
				if j.swap {
					t := time.Now()
					app, ver, plan := sw.next()
					err := c.upload(dm.base, app, ver, plan)
					st.add(ms(time.Since(t)), true, err == nil)
					continue
				}
				ok, err := c.scan(dm.base, j.req)
				st.add(ms(time.Since(j.due)), false, ok && err == nil)
			}
		}(c)
	}
	lateAt, late = make([]float64, 0, n), make([]float64, 0, n)
	start := time.Now()
	nextSwap := start
	due := func(i int) time.Time {
		return start.Add(time.Duration(float64(i) / openLoopRPS * float64(time.Second)))
	}
	for i := 0; i < n; {
		now := time.Now()
		for ; i < n && !due(i).After(now); i++ {
			d := due(i)
			lateAt = append(lateAt, d.Sub(start).Seconds())
			late = append(late, ms(now.Sub(d)))
			if !d.Before(nextSwap) {
				jobs <- job{due: d, swap: true}
				nextSwap = nextSwap.Add(swapEvery)
			}
			jobs <- job{due: d, req: &reqs[i%len(reqs)]}
		}
		if i < n {
			time.Sleep(time.Until(due(i)))
		}
	}
	close(jobs)
	wg.Wait()
	return st, lateAt, late
}

// closedLoop keeps every connection busy with back-to-back scans for dur;
// the first connection also performs a plan swap at the start and every
// swapEvery after.
func closedLoop(dm *daemon, conns []*conn, reqs []serveReq, sw *swapper, dur time.Duration) *loadStats {
	st := &loadStats{}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w, c := range conns {
		wg.Add(1)
		go func(w int, c *conn) {
			defer wg.Done()
			nextSwap := start
			for time.Since(start) < dur {
				if w == 0 && !time.Now().Before(nextSwap) {
					t := time.Now()
					app, ver, plan := sw.next()
					err := c.upload(dm.base, app, ver, plan)
					st.add(ms(time.Since(t)), true, err == nil)
					nextSwap = nextSwap.Add(swapEvery)
				}
				i := next.Add(1) - 1
				t := time.Now()
				ok, err := c.scan(dm.base, &reqs[i%int64(len(reqs))])
				st.add(ms(time.Since(t)), false, ok && err == nil)
			}
		}(w, c)
	}
	wg.Wait()
	return st
}

// serveInputs is the generated serve-faulty traffic and its plans.
type serveInputs struct {
	train        map[string][]*sysimage.Image
	planA, planB *plans
	reqs         []serveReq
	dirs         map[string]string
	cleanRate    float64
	recall       float64
}

// genServe builds EC2-style apache/mysql/php images, plants several
// injected errors (an entry-name typo first) in every one, writes them to
// disk and reads them back as request bodies. Two plan variants per app
// are learned from independent training sets, and every body gets a
// reference report under each.
func genServe(b *bench, fw *encore.Framework) (*serveInputs, error) {
	in := &serveInputs{dirs: map[string]string{}}
	var err error
	if in.train, err = trainingSets(b.seed); err != nil {
		return nil, err
	}
	if in.planA, err = learnPlans(fw, in.train); err != nil {
		return nil, err
	}
	trainB, err := trainingSets(b.seed + seedPlanB)
	if err != nil {
		return nil, err
	}
	if in.planB, err = learnPlans(fw, trainB); err != nil {
		return nil, err
	}
	dir := filepath.Join(b.dir, "serve")
	for _, app := range apps {
		in.dirs[app] = filepath.Join(dir, app)
	}
	for p := 0; p < servePopulations; p++ {
		pop, err := corpus.EC2Targets(b.seed*seedTargets + 1000 + int64(p))
		if err != nil {
			return nil, err
		}
		inj := inject.New(b.seed*seedInjection + int64(p))
		for _, img := range pop.Images {
			img.ID = fmt.Sprintf("s%02d-%s", p, img.ID)
			injected, err := injectErrors(inj, img, serveErrors)
			if err != nil {
				continue // too few eligible entries for the error mix; not a target
			}
			t, err := saveImage(dir, img)
			if err != nil {
				return nil, err
			}
			t.injected = injected
			body, err := os.ReadFile(t.path)
			if err != nil {
				return nil, err
			}
			in.reqs = append(in.reqs, serveReq{target: t, body: body})
		}
	}
	if len(in.reqs) == 0 {
		return nil, fmt.Errorf("no serve targets generated")
	}
	ref := encore.New()
	reports := map[string]*detect.Report{}
	targets := make([]target, len(in.reqs))
	for v, p := range []*plans{in.planA, in.planB} {
		for _, app := range apps {
			plan, err := ref.LoadPlan(p.bytes[app])
			if err != nil {
				return nil, err
			}
			for i := range in.reqs {
				r := &in.reqs[i]
				if r.app != app {
					continue
				}
				var rep *detect.Report
				if r.ref[v], rep, err = referenceReport(plan, r.body); err != nil {
					return nil, err
				}
				if v == 0 {
					reports[r.id] = rep
					targets[i] = r.target
				}
			}
		}
	}
	found, total := recallOf(targets, reports)
	in.recall = float64(found) / float64(total)
	clean, err := heldOut(heldOutImages, b.seed+seedClean, "clean")
	if err != nil {
		return nil, err
	}
	in.cleanRate, err = flagRate(in.planA.live, clean)
	return in, err
}

func runServe(b *bench) error {
	fw := encore.New()
	in, err := genServe(b, fw)
	if err != nil {
		return err
	}
	conns := make([]*conn, serveConns)
	for i := range conns {
		conns[i] = newConn()
		defer conns[i].close()
	}
	var dm *daemon
	setup, err := b.repeatSetup(func() error {
		if dm != nil {
			if err := dm.close(); err != nil {
				return err
			}
		}
		var err error
		dm, err = bootDaemon(conns[0], cliRecorder(), in.planA)
		return err
	})
	if err != nil {
		return err
	}
	defer dm.close()
	sw := newSwapper(in.planA, in.planB)

	// Warm-up: a verified closed-loop half second.
	warm := closedLoop(dm, conns, in.reqs, sw, 500*time.Millisecond)
	b.ops(warm.attempted, warm.failed)

	if b.trace {
		return traceServe(b, fw, in, dm, conns, sw)
	}

	// Both phases run in serveSlice slices with a reference burst before
	// each, taken while the daemon is idle. Each slice's figures are
	// medians' inputs, so a burst of outside noise moves one slice rather
	// than the result. Closed-loop throughput and the open-loop p99 are
	// taken at the reference pace of the burst before their slice: they are
	// scans queued behind scans and plan swaps, CPU work that tracks the
	// reference. The open-loop median, at a sixth of capacity, is mostly
	// round trip and wake-up, which does not: runs of one seed spread 3.5%
	// as measured against 8.6% at the reference pace, so it is reported as
	// measured. Open-loop slices line up with the stall guard's windows.
	heap := startHeapSampler()
	var p50, p99, lateAt, late []float64
	for i := 0; i < int(openLoopShare*float64(b.seconds)/float64(serveSlice)); i++ {
		slow := b.pace.burst()
		st, la, l := openLoop(dm, conns, in.reqs, sw, serveSlice)
		p50 = append(p50, quantile(st.lat, 0.5))
		p99 = append(p99, quantile(st.lat, 0.99)/slow)
		b.ops(st.attempted, st.failed)
		for _, at := range la {
			lateAt = append(lateAt, at+float64(i)*serveSlice.Seconds())
		}
		late = append(late, l...)
	}
	b.stallGuard(lateAt, late)
	m0, a0 := mallocs(), b.pace.allocs
	var closed int64
	var rates []float64
	for end := time.Now().Add(time.Duration((1 - openLoopShare) * float64(b.seconds))); time.Now().Before(end); {
		slow := b.pace.burst()
		t := time.Now()
		st := closedLoop(dm, conns, in.reqs, sw, serveSlice)
		rates = append(rates, float64(len(st.lat))/time.Since(t).Seconds()*slow)
		b.ops(st.attempted, st.failed)
		closed += st.attempted
	}
	allocs := mallocs() - m0 - (b.pace.allocs - a0)
	b.set("peak_heap_mb", heap.peakMiB())
	b.set("setup_s", setup)
	b.set("throughput_per_s", median(rates))
	b.set("latency_p50_ms", median(p50))
	b.set("latency_p99_ms", median(p99))
	b.set("allocs_per_op", float64(allocs)/float64(closed))
	b.set("detect_recall", in.recall)
	return nil
}

// traceServe breaks the serve path down by layer: client latency against
// the daemon's serve.scan, serve.decode and serve.check spans, plan swap
// cost, recorder overhead, and the shared isolated replays.
func traceServe(b *bench, fw *encore.Framework, in *serveInputs, dm *daemon, conns []*conn, sw *swapper) error {
	open, lateAt, late := openLoop(dm, conns, in.reqs, sw, time.Duration(0.3*float64(b.seconds)))
	b.ops(open.attempted, open.failed)
	b.stallGuard(lateAt, late)
	b.set("gen.late_p99_ms", quantile(late, 0.99))
	// Restore variant A everywhere so the layer runs compare like with like.
	for _, app := range apps {
		if err := conns[0].upload(dm.base, app, "A.r", in.planA.bytes[app]); err != nil {
			return err
		}
	}
	if err := dm.close(); err != nil {
		return err
	}
	b.set("detect.clean_flag_rate", in.cleanRate)
	fs := &fleetScan{dirs: in.dirs, plans: in.planA.live}
	fl, err := traceFleetLayers(b, fs)
	if err != nil {
		return err
	}
	files, err := sampleFiles(in.dirs, replayImages)
	if err != nil {
		return err
	}
	if err := replayLayers(b, fw, files, in.planA, fl.workerUs); err != nil {
		return err
	}
	if _, err := learnLayers(b, in.train, 1); err != nil {
		return err
	}
	// Last, so the daemon's own alert tallies are the ones reported.
	return serveLayers(b, in.reqs, in.planA, tracedRequests, true)
}

// transport is an HTTP server whose handler does no scan work: it reads
// the whole request body and answers with as many bytes as the path
// names. A round trip to it with a scan's request body and response size
// is that scan's transport cost — client, connection and net/http on both
// ends — measured apart from the daemon.
type transport struct {
	srv  *http.Server
	base string
	done chan struct{}
}

func startTransport() (*transport, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	filler := bytes.Repeat([]byte{' '}, 1<<20)
	t := &transport{base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	t.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		n, _ := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/"))
		w.Header().Set("Content-Type", "application/json")
		w.Write(filler[:min(n, len(filler))])
	})}
	go func() {
		defer close(t.done)
		t.srv.Serve(ln)
	}()
	return t, nil
}

func (t *transport) close() {
	t.srv.Close()
	<-t.done
}

// serveLayers measures the serve path's per-layer costs over the first n
// of reqs on one connection: untraced client latency, traced requests
// matched to the daemon's spans by request ID, and the same bodies
// through the transport server. For the serve workload itself (own) it
// adds the requests against a daemon without a recorder and an in-process
// replay of each body through LoadJSON, Plan.Check, Report.AppendJSON and
// alert publishing. All of them run in interleaved chunks, so slow drift
// of the machine hits them alike; plan swaps are timed last. own also
// records the trace.*, gc and alert metrics of the serve path, and its
// sum check sets the transport, replay and recorder costs, each measured
// on its own, against the untraced client latency.
func serveLayers(b *bench, reqs []serveReq, p *plans, n int, own bool) error {
	c := newConn()
	defer c.close()
	rec := telemetry.New()
	dm, err := bootDaemon(c, rec, p)
	if err != nil {
		return err
	}
	defer dm.close()
	tr, err := startTransport()
	if err != nil {
		return err
	}
	defer tr.close()
	var off *daemon
	var rp *handlerReplay
	if own {
		if off, err = bootDaemon(c, nil, p); err != nil {
			return err
		}
		defer off.close()
		if rp, err = newHandlerReplay(p); err != nil {
			return err
		}
		defer rp.close()
	}
	// A verified first pass warms the daemon and records each response's
	// size for the transport round trips.
	respLen := make([]int, n)
	var warmFailed int64
	for i := range respLen {
		ok, err := c.scan(dm.base, &reqs[i%len(reqs)])
		if err != nil {
			return err
		}
		respLen[i] = c.buf.Len()
		warmFailed += failedIf(!ok)
	}
	b.ops(int64(n), warmFailed)

	var base, traced, offLat, trans []float64
	run := func(d *daemon, lo, hi int, tag string, out *[]float64) error {
		var failed int64
		for i := lo; i < hi; i++ {
			var hdr []string
			if tag != "" {
				hdr = []string{"X-Request-Id", fmt.Sprintf("%s%d", tag, i)}
			}
			t := time.Now()
			ok, err := c.scan(d.base, &reqs[i%len(reqs)], hdr...)
			if err != nil {
				return err
			}
			*out = append(*out, us(time.Since(t)))
			failed += failedIf(!ok)
		}
		b.ops(int64(hi-lo), failed)
		return nil
	}
	roundTrip := func(lo, hi int) error {
		var failed int64
		for i := lo; i < hi; i++ {
			t := time.Now()
			code, err := c.do("POST", tr.base+"/"+strconv.Itoa(respLen[i]), reqs[i%len(reqs)].body)
			if err != nil {
				return err
			}
			trans = append(trans, us(time.Since(t)))
			failed += failedIf(code != http.StatusOK || c.buf.Len() != respLen[i])
		}
		b.ops(int64(hi-lo), failed)
		return nil
	}
	const chunks = 10
	gcw := newGCWindow()
	for ch := 0; ch < chunks; ch++ {
		lo, hi := ch*n/chunks, (ch+1)*n/chunks
		steps := []func() error{
			func() error { return run(dm, lo, hi, "", &base) },
			func() error { return run(dm, lo, hi, "t-", &traced) },
			func() error { return roundTrip(lo, hi) },
		}
		if own {
			steps = append(steps,
				func() error { return run(off, lo, hi, "", &offLat) },
				func() error { b.ops(rp.run(reqs, lo, hi)); return nil })
		}
		for k := range steps {
			if err := steps[(k+ch)%len(steps)](); err != nil {
				return err
			}
		}
	}
	gcRatio := gcw.ratio()
	var swaps []float64
	for i := 0; i < 30; i++ {
		app := apps[i%len(apps)]
		t := time.Now()
		if err := c.upload(dm.base, app, fmt.Sprintf("A.s%d", i), p.bytes[app]); err != nil {
			return err
		}
		swaps = append(swaps, ms(time.Since(t)))
	}
	b.ops(30, 0)
	if err := dm.close(); err != nil {
		return err
	}

	// Match traced requests to their spans.
	type req struct{ scan, decode, check time.Duration }
	byID := map[int64]*req{}
	var ordered []*req
	spans := rec.Snapshot().Spans
	for _, s := range spans {
		if s.Name != "serve.scan" {
			continue
		}
		for _, a := range s.Attrs {
			if a.Key == "request_id" && strings.HasPrefix(a.Value, "t-") {
				r := &req{scan: s.Dur}
				byID[s.ID] = r
				ordered = append(ordered, r)
			}
		}
	}
	for _, s := range spans {
		r := byID[s.Parent]
		if r == nil {
			continue
		}
		switch s.Name {
		case "serve.decode":
			r.decode += s.Dur
		case "serve.check":
			r.check += s.Dur
		}
	}
	if len(ordered) != n {
		return fmt.Errorf("matched %d serve.scan spans to %d traced requests", len(ordered), n)
	}
	var scanUs, decodeUs, checkUs float64
	for _, r := range ordered {
		scanUs += us(r.scan)
		decodeUs += us(r.decode)
		checkUs += us(r.check)
	}
	fn := float64(n)
	scanUs, decodeUs, checkUs = scanUs/fn, decodeUs/fn, checkUs/fn
	tracedUs := mean(traced)
	b.set("serve.http_us", tracedUs-scanUs)
	b.set("serve.decode_us", decodeUs)
	b.set("serve.check_us", checkUs)
	b.set("serve.handler_self_us", scanUs-decodeUs-checkUs)
	b.set("serve.swap_ms", median(swaps))
	transUs := mean(trans)
	b.set("serve.transport_us", transUs)
	if !own {
		return nil
	}
	alerts := dm.alerts.Stats()
	b.set("alert.published", float64(alerts.Published))
	b.set("alert.dropped", float64(alerts.Dropped))
	b.set("alert.delivered_ratio", ratio(float64(alerts.Delivered), float64(alerts.Published)))
	b.set("runtime.gc_cpu_ratio", gcRatio)
	baseUs := mean(base)
	b.set("trace.overhead_ratio", tracedUs/baseUs-1)
	b.set("telemetry.overhead_ratio", baseUs/mean(offLat)-1)
	// The recorder's share is the one serve layer timed by switching it
	// off rather than by replay.
	recUs := baseUs - mean(offLat)
	b.sumCheck(baseUs, transUs+rp.perOp()+recUs, serveSumTolerance)
	return nil
}

// handlerReplay runs request bodies in process through the layers of the
// daemon's scan handler — sysimage.LoadJSON, Plan.Check,
// Report.AppendJSON, alert.Pipeline.Publish, and encoding/json writing
// the reply around the rendered report — timing each.
type handlerReplay struct {
	p                                      *plans
	alerts                                 *alert.Pipeline
	buf, out                               bytes.Buffer
	n                                      int
	decode, check, render, publish, encode time.Duration
}

// reply has the shape of the daemon's /v1/scan reply.
type reply struct {
	RequestID     string          `json:"requestId"`
	App           string          `json:"app"`
	PlanVersion   string          `json:"planVersion"`
	ElapsedMicros int64           `json:"elapsedMicros"`
	Findings      int             `json:"findings"`
	Report        json.RawMessage `json:"report"`
}

// perOp is the replay's per-request cost of its layers, in µs.
func (r *handlerReplay) perOp() float64 {
	return us(r.decode+r.check+r.render+r.publish+r.encode) / float64(r.n)
}

func newHandlerReplay(p *plans) (*handlerReplay, error) {
	alerts, err := newPipeline(telemetry.New())
	return &handlerReplay{p: p, alerts: alerts}, err
}

func (r *handlerReplay) close() { r.alerts.Shutdown(context.Background()) }

// run replays reqs[lo:hi], verifying every rendering against the
// request's reference report, and returns the attempted and failed
// counts.
func (r *handlerReplay) run(reqs []serveReq, lo, hi int) (attempted, failed int64) {
	for i := lo; i < hi; i++ {
		q := &reqs[i%len(reqs)]
		t0 := time.Now()
		img, err := sysimage.LoadJSON(q.body)
		t1 := time.Now()
		if err != nil {
			failed++
			continue
		}
		rep, err := r.p.live[q.app].Check(img)
		t2 := time.Now()
		if err != nil {
			failed++
			continue
		}
		r.buf.Reset()
		err = rep.AppendJSON(&r.buf)
		t3 := time.Now()
		for _, w := range rep.Warnings {
			r.alerts.Publish(alert.FromWarning(w, q.app, img.ID, "replay", "A.0"))
		}
		t4 := time.Now()
		r.out.Reset()
		json.NewEncoder(&r.out).Encode(reply{RequestID: "replay", App: q.app, PlanVersion: "A.0",
			ElapsedMicros: t2.Sub(t1).Microseconds(), Findings: len(rep.Warnings), Report: r.buf.Bytes()})
		t5 := time.Now()
		r.n++
		r.decode += t1.Sub(t0)
		r.check += t2.Sub(t1)
		r.render += t3.Sub(t2)
		r.publish += t4.Sub(t3)
		r.encode += t5.Sub(t4)
		failed += failedIf(err != nil || !sameReport(bytes.TrimRight(r.buf.Bytes(), "\n"), q.ref[0]))
	}
	return int64(hi - lo), failed
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// filesAsRequests turns image files into scan requests whose reference is
// the plan's serial report of a fresh decode (one variant: swaps in
// replays re-upload the same plan).
func filesAsRequests(files []appFile, p *plans) ([]serveReq, error) {
	reqs := make([]serveReq, 0, len(files))
	for _, f := range files {
		body, err := os.ReadFile(f.path)
		if err != nil {
			return nil, err
		}
		r := serveReq{target: target{app: f.app, path: f.path}, body: body}
		if r.ref[0], _, err = referenceReport(p.live[f.app], body); err != nil {
			return nil, err
		}
		reqs = append(reqs, r)
	}
	return reqs, nil
}

// serveReplay runs a non-serve workload's own image files through the
// serve layers.
func serveReplay(b *bench, files []appFile, p *plans) error {
	reqs, err := filesAsRequests(files, p)
	if err != nil {
		return err
	}
	return serveLayers(b, reqs, p, replayServe, false)
}
