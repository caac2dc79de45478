package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/store"
)

// TelemetryFile is the per-run-directory telemetry artifact. Unlike
// every other artifact it records wall-clock measurements, so its
// bytes differ between hosts and runs of the same seed — it is the
// one intentionally nondeterministic file in a sealed run directory.
// Writing it is therefore opt-in (`ethrepro -telemetry`, server
// Config.Telemetry); when written it is still sealed into the
// manifest like any other blob.
const TelemetryFile = "telemetry.json"

// TelemetrySchemaVersion versions the telemetry.json layout.
const TelemetrySchemaVersion = 1

// TelemetryRow is one (spec, repeat) run's performance record.
type TelemetryRow struct {
	Spec   string `json:"spec"`
	Repeat int    `json:"repeat"`
	Seed   uint64 `json:"seed"`
	// Engines counts the simulation engines the run executed (sweep
	// specs run several campaigns per run).
	Engines int `json:"engines"`
	// Events / Scheduled are summed engine dispatch and enqueue
	// counters, FarScheduled the enqueues among them that landed beyond
	// the engine's wheel horizon; PeakQueue and Slots (event-storage
	// capacity, in events) are maxima across engines.
	Events       uint64 `json:"events"`
	Scheduled    uint64 `json:"scheduled"`
	FarScheduled uint64 `json:"far_scheduled"`
	PeakQueue    int    `json:"peak_queue"`
	Slots        int    `json:"slots"`
	// SimMS is the total virtual time simulated.
	SimMS int64 `json:"sim_ms"`
	// BuildMS / RunMS split the run's wall time into campaign
	// construction and engine execution; ElapsedMS is the runner's
	// whole-run measurement (includes analysis and rendering).
	BuildMS   float64 `json:"build_ms"`
	RunMS     float64 `json:"run_ms"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// EventsPerSec is dispatch throughput over engine-run wall time.
	EventsPerSec float64 `json:"events_per_sec"`
	// Messages/Bytes/Dropped are transport totals.
	Messages uint64 `json:"messages"`
	Bytes    uint64 `json:"bytes"`
	Dropped  uint64 `json:"dropped"`
	// PeakHeapBytes is the largest live-heap reading across the run's
	// engines; Nodes the largest overlay size; BytesPerNode their
	// ratio (zero for chain-only runs) — the telemetry counterpart of
	// the bytes-per-node ceiling test (docs/PERFORMANCE.md).
	PeakHeapBytes uint64  `json:"peak_heap_bytes,omitempty"`
	Nodes         int     `json:"nodes,omitempty"`
	BytesPerNode  float64 `json:"bytes_per_node,omitempty"`
	// Shard* describe the conductor's window loop when the run
	// executed sharded (ETHREPRO_SHARDS / -shards); all omitted for
	// single-engine runs. ShardStalled counts lane-windows lost to the
	// conservative-lookahead bound — the sharding efficiency metric.
	ShardWorkers int                 `json:"shard_workers,omitempty"`
	ShardWindows uint64              `json:"shard_windows,omitempty"`
	ShardStalled uint64              `json:"shard_stalled,omitempty"`
	ShardMerged  uint64              `json:"shard_merged,omitempty"`
	Lanes        []obs.LaneTelemetry `json:"lanes,omitempty"`
	// PairWindows is the conductor's per-lane-pair window-width
	// histogram: which lane bound which lane's phase-B deadline, how
	// often it stalled, and how wide the granted windows were — the
	// observability surface for the topology-aware lookahead.
	PairWindows []obs.PairWindowTelemetry `json:"pair_windows,omitempty"`
	// Kinds is the per-event-kind dispatch profile (tracing runs
	// only).
	Kinds []obs.KindStats `json:"kinds,omitempty"`
}

// Telemetry is the telemetry.json document: per-run performance rows
// joined with a process runtime snapshot.
type Telemetry struct {
	SchemaVersion int              `json:"schema_version"`
	Seed          uint64           `json:"seed"`
	Scale         string           `json:"scale"`
	Repeats       int              `json:"repeats"`
	Process       obs.ProcessStats `json:"process"`
	Runs          []TelemetryRow   `json:"runs"`
}

// ReportSeeds lists the derived per-run seeds of a report in result
// order — the key set for obs.Collector.Take.
func ReportSeeds(r *Report) []uint64 {
	seeds := make([]uint64, 0, len(r.Results))
	for _, res := range r.Results {
		seeds = append(seeds, res.Seed)
	}
	return seeds
}

// BuildTelemetry joins a report with the observability data its runs
// deposited in the collector (keyed by derived seed). Runs the
// collector never saw (failed before the engine, or telemetry was
// enabled mid-campaign) still get a row carrying the runner's elapsed
// time.
func BuildTelemetry(r *Report, taken map[uint64]obs.RunTelemetry) *Telemetry {
	tel := &Telemetry{
		SchemaVersion: TelemetrySchemaVersion,
		Seed:          r.Seed,
		Scale:         r.Scale.String(),
		Repeats:       r.Repeats,
		Process:       obs.ProcessSnapshot(),
	}
	for _, res := range r.Results {
		row := TelemetryRow{
			Spec:      res.Spec.ID,
			Repeat:    res.Repeat,
			Seed:      res.Seed,
			ElapsedMS: float64(res.Elapsed.Nanoseconds()) / 1e6,
		}
		if rt, ok := taken[res.Seed]; ok {
			row.Engines = rt.Engines
			row.Events = rt.Events
			row.Scheduled = rt.Scheduled
			row.FarScheduled = rt.FarScheduled
			row.PeakQueue = rt.PeakQueue
			row.Slots = rt.Slots
			row.SimMS = rt.SimMS
			row.BuildMS = float64(rt.BuildNanos) / 1e6
			row.RunMS = float64(rt.RunNanos) / 1e6
			row.EventsPerSec = rt.EventsPerSec()
			row.Messages = rt.Messages
			row.Bytes = rt.Bytes
			row.Dropped = rt.Dropped
			row.PeakHeapBytes = rt.PeakHeapBytes
			row.Nodes = rt.Nodes
			row.BytesPerNode = rt.BytesPerNode()
			row.ShardWorkers = rt.ShardWorkers
			row.ShardWindows = rt.ShardWindows
			row.ShardStalled = rt.ShardStalled
			row.ShardMerged = rt.ShardMerged
			row.Lanes = rt.Lanes
			row.PairWindows = rt.PairWindows
			row.Kinds = rt.Kinds
		}
		tel.Runs = append(tel.Runs, row)
	}
	return tel
}

// WriteTelemetry stores telemetry.json. Call before WriteManifest so
// the blob is covered by the Merkle root.
func WriteTelemetry(st store.Store, tel *Telemetry) error {
	return putJSON(st, TelemetryFile, tel)
}

// ReadTelemetry loads a run directory's telemetry.json, if present.
func ReadTelemetry(st store.Store) (*Telemetry, error) {
	data, err := st.Get(TelemetryFile)
	if err != nil {
		return nil, err
	}
	var tel Telemetry
	if err := json.Unmarshal(data, &tel); err != nil {
		return nil, fmt.Errorf("experiments: parse %s: %w", TelemetryFile, err)
	}
	return &tel, nil
}

// RenderTelemetry renders the per-spec throughput table ethanalyze
// -run appends when a run directory carries telemetry, followed by a
// sharding section (stalled lane windows and the per-lane-pair window
// breakdown) for rows that executed under the conductor.
func RenderTelemetry(tel *Telemetry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Run telemetry — %s, %d run(s)\n", tel.Process.GoVersion, len(tel.Runs))
	fmt.Fprintf(&b, "  %-10s %3s %12s %12s %10s %10s %9s %12s %10s %8s\n",
		"spec", "rep", "events", "events/s", "peak q", "sim s", "wall s", "msgs", "heap MiB", "B/node")
	for _, row := range tel.Runs {
		fmt.Fprintf(&b, "  %-10s %3d %12d %12.0f %10d %10.1f %9.2f %12d %10.1f %8.0f\n",
			row.Spec, row.Repeat, row.Events, row.EventsPerSec,
			row.PeakQueue, float64(row.SimMS)/1e3, row.ElapsedMS/1e3, row.Messages,
			float64(row.PeakHeapBytes)/(1<<20), row.BytesPerNode)
	}
	for _, row := range tel.Runs {
		if row.ShardWindows == 0 {
			continue
		}
		stallPct := 0.0
		if row.ShardWindows > 0 {
			stallPct = 100 * float64(row.ShardStalled) / float64(row.ShardWindows)
		}
		fmt.Fprintf(&b, "  shard %s/%d: %d workers, %d windows, %d stalled lane windows (%.1f%% of windows), %d merged\n",
			row.Spec, row.Repeat, row.ShardWorkers, row.ShardWindows, row.ShardStalled, stallPct, row.ShardMerged)
		if len(row.PairWindows) > 0 {
			fmt.Fprintf(&b, "    %-9s %12s %10s %12s %10s\n", "src→dst", "windows", "stalled", "width ms", "mean ms")
			for _, p := range row.PairWindows {
				fmt.Fprintf(&b, "    %-9s %12d %10d %12d %10.1f\n",
					laneName(p.Src)+"→"+laneName(p.Dst), p.Count, p.Stalled, p.WidthSum, p.MeanWidth())
			}
		}
	}
	fmt.Fprintf(&b, "  process: heap %.1f MiB, %d GCs (%.1f ms pause), GOMAXPROCS %d\n",
		float64(tel.Process.HeapAllocBytes)/(1<<20), tel.Process.NumGC,
		tel.Process.GCPauseTotalMS, tel.Process.GOMAXPROCS)
	return b.String()
}

// laneName maps a conductor lane index to its display name: "G" for
// the global lane, otherwise the region abbreviation.
func laneName(i int) string {
	if i == 0 {
		return "G"
	}
	regions := geo.Regions()
	if i-1 < len(regions) {
		return regions[i-1].String()
	}
	return fmt.Sprintf("L%d", i)
}
