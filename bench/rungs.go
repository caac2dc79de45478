package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/p2p/relay"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/types"
)

// A rung drives one module's public functions in isolation, on a pinned
// fixture, for a fixed number of operations (never b.N: the counts are
// part of the result). The fixture is built before the clock starts.
// Each rung is timed `reps` times and reports the median.
//
// rungPlan sizes a pass. The full pass (`-set rungs`) runs each rung for
// about 1-3 s, five times. A traced contract run has to fit every rung
// beside three campaign reps, so it runs the quick pass: the same
// fixtures — queue depth, overlay size and log size set the per-operation
// cost, so they are never cut — with a fifth of the operations, three
// times.
type rungPlan struct {
	reps int
	div  int // operation counts are the full counts divided by div
}

var (
	fullRungs  = rungPlan{reps: 5, div: 1}
	quickRungs = rungPlan{reps: 3, div: 5}
)

// timed runs body reps times and returns the median wall time.
func (pl rungPlan) timed(body func()) float64 {
	walls := make([]float64, pl.reps)
	for i := range walls {
		t0 := time.Now()
		body()
		walls[i] = time.Since(t0).Seconds()
	}
	return median(walls)
}

// runRungs runs every rung and returns its metrics by name. A rung
// that fails is reported on standard error and left out; the caller's
// catalogue walk then prints it as 0.
func runRungs(pl rungPlan) map[string]float64 {
	out := map[string]float64{}
	dir, err := workDir("rungs-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: rungs:", err)
		return out
	}
	defer os.RemoveAll(dir)
	for _, rung := range []struct {
		name string
		run  func() error
	}{
		{"sim.engine", func() error { return rungEngine(pl, out) }},
		{"sim.conductor", func() error { return rungConductor(pl, out) }},
		{"geo", func() error { return rungGeo(pl, out) }},
		{"p2p", func() error { return rungP2P(pl, out) }},
		{"mining", func() error { return rungMining(pl, out) }},
		{"raw-log", func() error { return rungRawLog(pl, dir, out) }},
		{"scenario", func() error { return rungScenario(pl, out) }},
		{"server", func() error { return rungServer(pl, dir, out) }},
		{"obs", func() error { return rungTracer(pl, out) }},
	} {
		fmt.Fprintf(os.Stderr, "bench: rung %s\n", rung.name)
		if err := rung.run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: rung %s: %v\n", rung.name, err)
		}
	}
	return out
}

// delays is a pinned table of exponential inter-event times (mean 1 s),
// so the rungs schedule the way the model does without timing the RNG.
var delays = func() []sim.Time {
	rng := sim.NewRNG(1)
	d := make([]sim.Time, 4096)
	for i := range d {
		d[i] = rng.ExpTime(1000) + 1
	}
	return d
}()

// holdHandler is the classic hold model: every event it handles
// schedules one successor, so the queue stays at its initial depth
// until the budget is spent.
type holdHandler struct {
	eng  *sim.Engine
	left int
	i    int
}

func (h *holdHandler) HandleEvent(sim.Time, uint64, uint64) {
	if h.left > 0 {
		h.left--
		h.i++
		h.eng.ScheduleCall(delays[h.i%len(delays)], h, 0, 0)
	}
}

// rungEngine: schedule + pop at three steady queue depths (1 is the
// chain-only family's regime, 32k the 10k-node overlay's), and a timer
// reset (detach + enqueue) at depth 1k.
func rungEngine(pl rungPlan, out map[string]float64) error {
	events := 2_000_000 / pl.div
	for _, d := range []struct {
		name  string
		depth int
	}{{"q1", 1}, {"q1k", 1000}, {"q32k", 32_000}} {
		var processed uint64
		wall := pl.timed(func() {
			eng := sim.NewEngine()
			h := &holdHandler{eng: eng, left: events}
			for i := 0; i < d.depth; i++ {
				eng.ScheduleCall(delays[i%len(delays)], h, 0, 0)
			}
			eng.Run()
			processed = eng.Stats().Processed
		})
		if want := uint64(events + d.depth); processed != want {
			return fmt.Errorf("hold %s processed %d events, want %d", d.name, processed, want)
		}
		out["sim.engine.hold_"+d.name+"_ns"] = wall / float64(processed) * 1e9
	}

	eng := sim.NewEngine()
	timers := make([]*sim.Timer, 1000)
	for i := range timers {
		timers[i] = eng.NewTimer(func(sim.Time) {})
		timers[i].Reset(delays[i])
	}
	wall := pl.timed(func() {
		for i := 0; i < events; i++ {
			timers[i%len(timers)].Reset(delays[i%len(delays)])
		}
	})
	out["sim.timer.reset_ns"] = wall / float64(events) * 1e9
	return nil
}

// tick re-schedules itself one millisecond on until its budget is
// spent: pure dispatch, no model. With every lane of a conductor
// ticking, each window holds exactly one event per lane, so the window
// loop itself is what is timed.
type tick struct {
	eng  *sim.Engine
	left int
}

func (t *tick) HandleEvent(sim.Time, uint64, uint64) {
	if t.left--; t.left > 0 {
		t.eng.ScheduleCall(1, t, 0, 0)
	}
}

// rungConductor: the cost of one conductor window (snapshot, deadlines,
// phase-B dispatch, barrier) over six synthetic lanes with no cross
// traffic, at 1 and at 2 workers.
func rungConductor(pl rungPlan, out map[string]float64) error {
	windows := 200_000 / pl.div
	for w := 1; w <= workers; w++ {
		var got uint64
		wall := pl.timed(func() {
			cond := sim.NewConductor(geo.NumRegions)
			// A merge hook, even an idle one, is what makes the conductor
			// apply the round-trip bound, as it does under the transport.
			cond.Merge = func() int { return 0 }
			for r := 0; r < cond.Regions(); r++ {
				lane := cond.Lane(r)
				lane.ScheduleCall(1, &tick{eng: lane, left: windows}, 0, 0)
			}
			cond.Run(w)
			got = cond.Stats().Windows
		})
		if got != uint64(windows) {
			return fmt.Errorf("conductor ran %d windows, want %d", got, windows)
		}
		out[fmt.Sprintf("sim.conductor.window_w%d_ns", w)] = wall / float64(got) * 1e9
	}
	return nil
}

// rungGeo: one latency draw, cycled over every region pair at an
// announcement's and a block's size.
func rungGeo(pl rungPlan, out map[string]float64) error {
	samples := 2_000_000 / pl.div
	model := geo.DefaultLatencyModel()
	regions := geo.Regions()
	sizes := [2]int{300, 40 << 10}
	var fail error
	wall := pl.timed(func() {
		rng := sim.NewRNG(1)
		for i := 0; i < samples; i++ {
			from := regions[i%len(regions)]
			to := regions[(i/len(regions))%len(regions)]
			if _, err := model.Sample(rng, from, to, sizes[i&1]); err != nil {
				fail = err
			}
		}
	})
	out["geo.sample_ns"] = wall / float64(samples) * 1e9
	return fail
}

// overlay builds an n-node overlay the way core does: region placement
// by node share, then WireRandom.
func overlay(n, degree int, mode relay.Mode) (*p2p.Network, error) {
	net := p2p.NewNetwork(sim.NewEngine(), sim.NewRNG(7).Fork("network"), geo.DefaultLatencyModel())
	proto, err := relay.New(relay.Config{Mode: mode})
	if err != nil {
		return nil, err
	}
	net.SetRelay(proto)
	placement, err := geo.PlaceNodes(n, geo.DefaultNodeShare)
	if err != nil {
		return nil, err
	}
	for _, r := range placement {
		if _, err := net.AddNode(r, 0); err != nil {
			return nil, err
		}
	}
	return net, net.WireRandom(degree)
}

// rungP2P: overlay construction per node, and for every relay mode the
// transport cost per message of spreading blocks through 2,000 nodes.
func rungP2P(pl rungPlan, out map[string]float64) error {
	const buildNodes = 20_000
	var fail error
	wall := pl.timed(func() {
		if _, err := overlay(buildNodes, 8, relay.SqrtPush); err != nil {
			fail = err
		}
	})
	if fail != nil {
		return fail
	}
	out["p2p.build_us_per_node"] = wall / buildNodes * 1e6

	const spreadNodes = 2000
	const blocksPerRep = 20
	for _, mode := range relay.Modes() {
		net, err := overlay(spreadNodes, 8, mode)
		if err != nil {
			return err
		}
		// One chain for the warm-up batch and every timed batch: a block
		// can be spread only once.
		chain := make([]*types.Block, 0, (pl.reps+1)*blocksPerRep)
		parent := types.Hash{}
		for k := 0; k < cap(chain); k++ {
			blk := types.NewBlock(types.Header{
				ParentHash: parent, Number: uint64(k + 1), MinerLabel: "Rung",
				TimeMillis: uint64(k), GasLimit: 8_000_000,
			}, nil, nil)
			parent = blk.Hash()
			chain = append(chain, blk)
		}
		engine := net.Engine()
		next := 0
		batch := func() {
			for k := 0; k < blocksPerRep; k++ {
				net.NodeAt((7*next)%spreadNodes).InjectBlock(engine.Now(), chain[next])
				next++
				engine.Run()
			}
		}
		batch() // warm the pools
		before := net.MessagesSent
		wall := pl.timed(batch)
		msgs := float64(net.MessagesSent-before) / float64(pl.reps)
		out["p2p.spread."+mode.String()+".ns_per_msg"] = wall / msgs * 1e9
		out["p2p.spread."+mode.String()+".msgs_per_block"] = msgs / float64(blocksPerRep)
	}
	return nil
}

// rungMining: the chain-only Monte-Carlo (mining + chain + views), the
// engine at queue depth < 70.
func rungMining(pl rungPlan, out map[string]float64) error {
	blocks := uint64(50_000 / pl.div)
	var fail error
	wall := pl.timed(func() {
		if _, err := core.RunChainOnly(7, blocks, nil); err != nil {
			fail = err
		}
	})
	out["mining.chain_only_blocks_per_s"] = float64(blocks) / wall
	return fail
}

// rawLogCampaign runs the fixture campaign behind the measure, analysis
// and store rungs: 800 nodes, 200 blocks, four vantages at 100 peers.
func rawLogCampaign(streaming bool) (*core.CampaignResult, error) {
	cfg := core.DefaultCampaignConfig(7)
	cfg.NetworkNodes = 800
	cfg.Blocks = 200
	cfg.Measurement = core.PaperMeasurementSpecs(100)
	cfg.Streaming = streaming
	return core.RunCampaign(cfg)
}

// rungRawLog: the measurement log's encode/decode, the three ways to an
// analysis index, and the store's put / manifest / verify, all on one
// raw-log fixture.
func rungRawLog(pl rungPlan, dir string, out map[string]float64) error {
	raw, err := rawLogCampaign(false)
	if err != nil {
		return err
	}
	streamed, err := rawLogCampaign(true)
	if err != nil {
		return err
	}
	var all []measure.Record
	for _, n := range raw.Nodes {
		all = append(all, n.Records()...)
	}
	out["measure.records"] = float64(len(all))

	var fail error
	keep := func(err error) {
		if err != nil {
			fail = err
		}
	}
	blobs := make([][]byte, len(raw.Nodes))
	wall := pl.timed(func() {
		for i, n := range raw.Nodes {
			var buf bytes.Buffer
			keep(measure.WriteJSONL(&buf, n.Records()))
			blobs[i] = buf.Bytes()
		}
	})
	mb := 0.0
	for _, b := range blobs {
		mb += float64(len(b)) / 1e6
	}
	out["measure.jsonl_encode_mb_s"] = mb / wall
	wall = pl.timed(func() {
		for _, b := range blobs {
			_, err := measure.ReadJSONL(bytes.NewReader(b))
			keep(err)
		}
	})
	out["measure.jsonl_decode_mb_s"] = mb / wall

	var ds *analysis.Dataset
	wall = pl.timed(func() {
		ds, err = analysis.FromRecords(all)
		keep(err)
	})
	out["analysis.from_records_ms"] = wall * 1e3
	if fail != nil {
		return fail
	}
	wall = pl.timed(func() {
		_, err := analysis.BuildIndex(ds)
		keep(err)
	})
	out["analysis.build_index_ms"] = wall * 1e3
	wall = pl.timed(func() {
		_, err := analysis.IndexFromStreams(streamed.Nodes)
		keep(err)
	})
	out["analysis.index_streams_ms"] = wall * 1e3

	// Every timed put goes to a directory of its own: overwriting a file
	// is a different operation from creating it.
	n := 0
	fresh := func() *store.FS {
		n++
		return store.NewFS(filepath.Join(dir, fmt.Sprintf("store%d", n)))
	}
	const smallPuts = 256
	small := bytes.Repeat([]byte("x"), 2048)
	putLogs := func(st *store.FS) {
		for i, b := range blobs {
			keep(st.Put(raw.Nodes[i].Name()+".jsonl", b))
		}
	}
	putSmall := func(st *store.FS) {
		for i := 0; i < smallPuts; i++ {
			keep(st.Put(fmt.Sprintf("small/%03d.bin", i), small))
		}
	}
	wall = pl.timed(func() { putLogs(fresh()) })
	out["store.fs_put_mb_s"] = mb / wall
	wall = pl.timed(func() { putSmall(fresh()) })
	out["store.fs_put_small_us"] = wall / smallPuts * 1e6

	// Seal and verify a directory holding both: the logs price the
	// hashing, the small files the directory walk.
	st := fresh()
	putLogs(st)
	putSmall(st)
	var m *store.Manifest
	wall = pl.timed(func() {
		m, err = st.Manifest()
		keep(err)
	})
	out["store.manifest_ms"] = wall * 1e3
	if fail != nil {
		return fail
	}
	doc, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := st.Put(store.ManifestFile, doc); err != nil {
		return err
	}
	wall = pl.timed(func() { keep(store.Verify(st)) })
	out["store.verify_ms"] = wall * 1e3
	return fail
}

// rungScenario: load and compile every shipped scenario file.
func rungScenario(pl rungPlan, out map[string]float64) error {
	files, err := filepath.Glob("examples/scenarios/*.json")
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no scenario files under examples/scenarios (run from the repository root)")
	}
	var fail error
	wall := pl.timed(func() {
		for _, f := range files {
			set, err := scenario.Load(f)
			if err == nil {
				_, err = set.Compile()
			}
			if err != nil {
				fail = fmt.Errorf("%s: %w", f, err)
			}
		}
	})
	out["scenario.compile_ms"] = wall * 1e3
	return fail
}

// rungServer: the service's own overhead — 200 sequential T1 campaigns
// (a static table: the simulation is free) from POST to a verified
// directory.
func rungServer(pl rungPlan, dir string, out map[string]float64) error {
	campaigns := 200 / pl.div
	svc := startService(filepath.Join(dir, "t1-store"))
	defer svc.close()
	// The service switches the process-wide collector on; the rungs run
	// in the parent, which otherwise keeps it off.
	defer obs.Default.Disable()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	sealedMS := make([]float64, 0, campaigns)
	for i := 0; i < campaigns; i++ {
		got := svc.submit(client, server.SubmitRequest{Specs: []string{"T1"}, Seed: uint64(i)})
		if got.failed > 0 {
			return fmt.Errorf("T1 campaign %d: %s", i, got.errs[0])
		}
		sealedMS = append(sealedMS, got.verified.Sub(got.post).Seconds()*1e3)
	}
	out["server.t1_sealed_ms_p50"] = median(sealedMS)
	return nil
}

// rungTracer: what obs.NewTracer adds to one dispatched event.
func rungTracer(pl rungPlan, out map[string]float64) error {
	events := 1_000_000 / pl.div
	dispatch := func(traced bool) float64 {
		return pl.timed(func() {
			eng := sim.NewEngine()
			if traced {
				eng.SetProbe(obs.NewTracer(obs.DefaultSpanCap))
			}
			eng.ScheduleCall(0, &tick{eng: eng, left: events}, 0, 0)
			eng.Run()
		})
	}
	out["obs.tracer_ns_per_event"] = (dispatch(true) - dispatch(false)) / float64(events) * 1e9
	return nil
}
