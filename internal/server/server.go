// Package server exposes the experiment runner as a resident
// campaign service: submit a campaign over HTTP, watch per-run
// progress as server-sent events, and fetch the digest-sealed
// artifacts when it finishes — the same byte-identical run directory
// `ethrepro -out` writes, because both front ends share one pipeline
// (experiments.Run -> store.Store -> sealed manifest).
//
// A bounded queue decouples submission from execution: up to Queue
// campaigns wait while Campaigns executors drain them, and each
// executor resolves its worker pool against WorkerBudget/Campaigns —
// so N concurrent campaigns share the machine instead of each
// claiming all of GOMAXPROCS.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/store"
)

// Config parameterizes a Server. The zero value is usable: an
// in-memory store per campaign, the built-in registry, one executor,
// a 16-deep queue and a GOMAXPROCS worker budget.
type Config struct {
	// Specs is the experiment registry campaigns select from (nil
	// means experiments.Specs()). Scenario submissions extend it per
	// campaign without mutating it.
	Specs []experiments.Spec
	// Queue bounds how many campaigns may wait (<= 0 means 16).
	// Submissions beyond it are rejected with 503, not buffered —
	// backpressure is the API contract.
	Queue int
	// Campaigns is the number of campaign executors (<= 0 means 1).
	Campaigns int
	// WorkerBudget caps the total experiment workers across all
	// executors (<= 0 means GOMAXPROCS). Each campaign runs with
	// Budget = WorkerBudget / Campaigns (floor 1).
	WorkerBudget int
	// OpenStore opens the artifact store for a campaign ID (nil means
	// a fresh in-memory store per campaign). cmd/ethserve points this
	// at per-campaign subdirectories of its -store root.
	OpenStore func(id string) (store.Store, error)
	// Logf, when non-nil, receives server logs.
	Logf func(format string, args ...any)
	// Telemetry writes a telemetry.json performance record into every
	// campaign's sealed run directory (see experiments.TelemetryFile).
	// Off by default because telemetry carries wall-clock content —
	// the one artifact that is not byte-reproducible across hosts.
	Telemetry bool
	// Profile captures a per-campaign CPU+heap pprof pair as sealed
	// artifacts (profile/cpu.pprof, profile/heap.pprof). The runtime
	// allows one CPU profile per process, so when campaigns overlap
	// only the first is profiled.
	Profile bool
	// PProf mounts net/http/pprof under /debug/pprof/ (off by
	// default: the pprof surface can dump goroutine stacks and drive
	// CPU load, so it is opt-in even on a trusted network).
	PProf bool
}

// SubmitRequest is the POST /campaigns body. Exactly like the CLI:
// leave Specs empty to run the whole registry, or submit a scenario
// (inline document and/or server-local path) to run its variants.
type SubmitRequest struct {
	// Specs selects registry experiment or outcome IDs.
	Specs []string `json:"specs,omitempty"`
	// Scenario is an inline scenario document (the contents of a
	// file from examples/scenarios/), compiled and run like
	// `ethrepro -scenario`.
	Scenario json.RawMessage `json:"scenario,omitempty"`
	// ScenarioPath names a server-local scenario file. With Scenario
	// set it only labels the embedded artifact (scenario.json records
	// the source path), which is what makes a submitted campaign's
	// artifacts byte-identical to a CLI run of the same file.
	ScenarioPath string `json:"scenario_path,omitempty"`
	// Seed is the campaign base seed.
	Seed uint64 `json:"seed"`
	// Scale is small|medium|paper|stress (empty means small).
	Scale string `json:"scale,omitempty"`
	// Repeats is the per-spec repeat count (<= 0 means 1, raised to a
	// scenario's suggested repeats like the CLI default).
	Repeats int `json:"repeats,omitempty"`
	// Parallel caps this campaign's workers (<= 0 means GOMAXPROCS);
	// the server budget still clamps it.
	Parallel int `json:"parallel,omitempty"`
}

// Server is the campaign service. Create with New, mount as an
// http.Handler, Close on shutdown.
type Server struct {
	cfg     Config
	budget  int // per-campaign worker budget
	mux     *http.ServeMux
	queue   chan *campaign
	metrics *serverMetrics

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string
	nextID    int
	closed    bool
}

// New starts a Server: executors begin draining the queue
// immediately.
func New(cfg Config) *Server {
	if cfg.Specs == nil {
		cfg.Specs = experiments.Specs()
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 16
	}
	if cfg.Campaigns <= 0 {
		cfg.Campaigns = 1
	}
	if cfg.WorkerBudget <= 0 {
		cfg.WorkerBudget = runtime.GOMAXPROCS(0)
	}
	if cfg.OpenStore == nil {
		cfg.OpenStore = func(string) (store.Store, error) { return store.NewMem(), nil }
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		budget:    max(cfg.WorkerBudget/cfg.Campaigns, 1),
		queue:     make(chan *campaign, cfg.Queue),
		baseCtx:   ctx,
		stop:      stop,
		campaigns: map[string]*campaign{},
	}
	s.metrics = newServerMetrics(s)
	if cfg.Telemetry {
		// The process-global collector is additive and stays enabled
		// for the server's lifetime; campaigns drain exactly their own
		// seeds, so concurrent campaigns do not observe each other.
		obs.Default.EnableTelemetry()
	}
	s.routes()
	for i := 0; i < cfg.Campaigns; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close stops the server: no new submissions, queued campaigns are
// cancelled, running campaigns drain their in-flight runs (their
// artifacts are still sealed), and all executors exit before Close
// returns.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.stop()
	close(s.queue)
	s.wg.Wait()
}

// Submit validates and enqueues a campaign, returning its status. It
// is the API behind POST /campaigns, exported so embedders (and the
// CLI smoke test) can drive the server without HTTP.
func (s *Server) Submit(req SubmitRequest) (Status, error) {
	c, err := s.resolve(req)
	if err != nil {
		return Status{}, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Status{}, errUnavailable("server is shutting down")
	}
	s.nextID++
	c.id = fmt.Sprintf("c%06d", s.nextID)
	st, err := s.cfg.OpenStore(c.id)
	if err != nil {
		s.nextID--
		s.mu.Unlock()
		return Status{}, fmt.Errorf("server: open store for %s: %w", c.id, err)
	}
	c.st = instrumentedStore{inner: st, m: s.metrics}
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	s.mu.Unlock()

	// Log "queued" before an executor can see the campaign: a fast run
	// would otherwise finish first and the event log would end on it.
	c.emit(Event{Type: "state", State: StateQueued})
	select {
	case s.queue <- c:
	default:
		// Queue full: reject and forget the campaign — backpressure,
		// not buffering.
		s.mu.Lock()
		delete(s.campaigns, c.id)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		s.metrics.rejected.Inc()
		return Status{}, errUnavailable(fmt.Sprintf("campaign queue full (%d waiting)", s.cfg.Queue))
	}
	s.metrics.submitted.Inc()
	s.cfg.Logf("server: %s queued: %d spec(s), seed %d, scale %s, %d repeat(s)",
		c.id, len(c.specs), c.seed, c.scale, c.repeats)
	return c.status(), nil
}

// errUnavailable marks errors the HTTP layer maps to 503.
type unavailableError string

func errUnavailable(msg string) error    { return unavailableError(msg) }
func (e unavailableError) Error() string { return string(e) }

// badRequestError marks validation errors the HTTP layer maps to 400.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

// maxCampaignRuns bounds specs x repeats for one campaign. The runner
// allocates per run before any of them starts, on the executor
// goroutine, so an unbounded repeat count in one POST would take the
// whole process — every tenant's queued and running campaign — down
// with it.
const maxCampaignRuns = 1 << 16

// resolve turns a SubmitRequest into a ready-to-run campaign under the
// ethrepro CLI's own resolution rules (scenario.Resolve). Every
// failure is the submitter's: 400.
func (s *Server) resolve(req SubmitRequest) (*campaign, error) {
	var sets []*scenario.Set
	switch {
	case len(req.Scenario) > 0:
		set, err := scenario.Parse(req.Scenario)
		if err != nil {
			return nil, badRequestError{fmt.Errorf("scenario: %w", err)}
		}
		// The recorded path only labels the artifact; an inline
		// document is never read from disk.
		set.Path = req.ScenarioPath
		sets = append(sets, set)
	case req.ScenarioPath != "":
		set, err := scenario.Load(req.ScenarioPath)
		if err != nil {
			return nil, badRequestError{err}
		}
		sets = append(sets, set)
	}
	specs, sets, repeats, err := scenario.Resolve(s.cfg.Specs, sets, req.Specs, req.Repeats)
	if err != nil {
		return nil, badRequestError{err}
	}
	if repeats > maxCampaignRuns/max(len(specs), 1) {
		return nil, badRequestError{fmt.Errorf("campaign of %d spec(s) x %d repeats exceeds the limit of %d runs",
			len(specs), repeats, maxCampaignRuns)}
	}
	scale, err := experiments.ParseScale(cmp.Or(req.Scale, "small"))
	if err != nil {
		return nil, badRequestError{err}
	}

	c := newCampaign("")
	c.specs = specs
	c.sets = sets
	c.seed = req.Seed
	c.scale = scale
	c.repeats = repeats
	c.total = len(specs) * repeats
	c.parallel = req.Parallel
	return c, nil
}

// executor drains the campaign queue. Several run concurrently
// (Config.Campaigns); the per-campaign Budget keeps their combined
// worker pools within WorkerBudget.
func (s *Server) executor() {
	defer s.wg.Done()
	for c := range s.queue {
		s.runCampaign(c)
	}
}

// runCampaign executes one campaign end to end: run the specs,
// stream progress into the event log, write and seal the artifacts.
// A cancelled campaign still seals whatever finished — exactly like
// interrupting the CLI.
func (c *campaign) claimRun(ctx context.Context) (context.Context, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != StateQueued {
		// Cancelled while waiting in the queue.
		return nil, false
	}
	runCtx, cancel := context.WithCancelCause(ctx)
	c.cancelRun = func() { cancel(errors.New("cancelled by DELETE /campaigns")) }
	return runCtx, true
}

func (s *Server) runCampaign(c *campaign) {
	ctx, ok := c.claimRun(s.baseCtx)
	if !ok {
		// Cancelled while queued; it never ran.
		s.metrics.finishedCancelled.Inc()
		return
	}
	s.metrics.executorsBusy.Inc()
	defer s.metrics.executorsBusy.Dec()
	c.setState(StateRunning)
	s.cfg.Logf("server: %s running (budget %d)", c.id, s.budget)
	start := time.Now()
	var prof *profileCapture
	if s.cfg.Profile {
		prof = startProfile()
	}
	report, runErr := experiments.Run(ctx, c.specs, experiments.RunnerConfig{
		Seed:     c.seed,
		Scale:    c.scale,
		Repeats:  c.repeats,
		Parallel: c.parallel,
		Budget:   s.budget,
		OnStart: func(r experiments.Result) {
			s.metrics.runsStarted.Inc()
			c.emit(Event{Type: "start", Spec: r.Spec.ID, Repeat: r.Repeat, Seed: r.Seed})
		},
		OnResult: func(r experiments.Result) {
			s.metrics.runsCompleted.Inc()
			if r.Err != nil {
				s.metrics.runsFailed.Inc()
			}
			c.mu.Lock()
			c.completed++
			if r.Err != nil {
				c.failed++
			}
			ev := Event{
				Type: "result", Spec: r.Spec.ID, Repeat: r.Repeat, Seed: r.Seed,
				ElapsedMS: r.Elapsed.Milliseconds(),
				Completed: c.completed, Total: c.total,
			}
			if r.Err != nil {
				ev.Error = r.Err.Error()
			}
			c.emitLocked(ev)
			c.mu.Unlock()
		},
	})

	var sealErr error
	if report != nil {
		// Profile artifacts land in the store before sealing, so the
		// manifest's Merkle root covers them.
		if err := prof.stop(c.st); err != nil {
			sealErr = err
		} else if prof != nil && prof.cpu.Len() > 0 {
			s.metrics.profiles.Inc()
		}
		prof = nil
		if err := s.sealCampaign(c, report); err != nil {
			sealErr = errors.Join(sealErr, err)
		}
	} else {
		prof.abort()
	}
	final := StateDone
	switch {
	case ctx.Err() != nil:
		final = StateCancelled
	case runErr != nil || sealErr != nil:
		final = StateFailed
	}
	switch final {
	case StateDone:
		s.metrics.finishedDone.Inc()
	case StateFailed:
		s.metrics.finishedFailed.Inc()
	case StateCancelled:
		s.metrics.finishedCancelled.Inc()
	}
	c.mu.Lock()
	c.cancelRun = nil
	if err := errors.Join(runErr, sealErr); err != nil {
		c.errMsg = err.Error()
	}
	c.mu.Unlock()
	c.setState(final)
	s.cfg.Logf("server: %s %s in %s", c.id, final, time.Since(start).Round(time.Millisecond))
}

// sealCampaign writes and seals the run directory with scenario.Seal,
// the sequence `ethrepro -out` runs — byte-identical to it, telemetry
// and profiles aside (the golden gate runs without them).
func (s *Server) sealCampaign(c *campaign, report *experiments.Report) error {
	var tel *experiments.Telemetry
	if s.cfg.Telemetry {
		tel = experiments.BuildTelemetry(report, obs.Default.Take(experiments.ReportSeeds(report)))
	}
	if err := scenario.Seal(c.st, report, c.sets, tel); err != nil {
		return err
	}
	m, err := store.ReadManifest(c.st)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.merkle = m.MerkleRoot
	c.mu.Unlock()
	return nil
}

// get looks up a campaign by ID.
func (s *Server) get(id string) (*campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// statuses snapshots every campaign in submission order.
func (s *Server) statuses() []Status {
	s.mu.Lock()
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	cs := make([]*campaign, 0, len(ids))
	for _, id := range ids {
		cs = append(cs, s.campaigns[id])
	}
	s.mu.Unlock()
	out := make([]Status, len(cs))
	for i, c := range cs {
		out[i] = c.status()
	}
	return out
}

// cancel requests cancellation: a queued campaign turns cancelled
// immediately (the executor skips it); a running one has its context
// cancelled and drains. Terminal campaigns are left untouched.
func (c *campaign) cancel() {
	c.mu.Lock()
	switch c.state {
	case StateQueued:
		c.state = StateCancelled
		c.errMsg = "cancelled before start"
		c.emitLocked(Event{Type: "state", State: StateCancelled})
		c.mu.Unlock()
	case StateRunning:
		stop := c.cancelRun
		c.mu.Unlock()
		if stop != nil {
			stop()
		}
	default:
		c.mu.Unlock()
	}
}

// trimPrefixSlash normalizes a {path...} wildcard value.
func trimPrefixSlash(p string) string { return strings.TrimPrefix(p, "/") }
