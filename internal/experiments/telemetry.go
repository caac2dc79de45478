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

// TelemetrySchemaVersion versions the telemetry.json layout. Version 2
// added each run's start_ms.
const TelemetrySchemaVersion = 2

// TelemetryRow is one (spec, repeat) run's performance record: the
// collector's row itself, under the name the benchmark harness uses.
type TelemetryRow = obs.RunTelemetry

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
		row := taken[res.Seed]
		row.Spec, row.Repeat, row.Seed = res.Spec.ID, res.Repeat, res.Seed
		row.StartMS = float64(res.Start.Nanoseconds()) / 1e6
		row.ElapsedMS = float64(res.Elapsed.Nanoseconds()) / 1e6
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
// -run appends when a run directory carries telemetry, the runner's
// packing (from version 2 on, which records start offsets), and a
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
	if tel.SchemaVersion >= 2 {
		var makespan, busy float64
		for _, row := range tel.Runs {
			makespan = max(makespan, row.StartMS+row.ElapsedMS)
			busy += row.ElapsedMS
		}
		fmt.Fprintf(&b, "  runner: makespan %.2f s, runs %.2f s summed, %.2f workers busy on average\n",
			makespan/1e3, busy/1e3, busy/max(makespan, 1e-9))
	}
	for _, row := range tel.Runs {
		if row.ShardWindows == 0 {
			continue
		}
		// A lane-window either ran (LaneWindows) or stalled.
		laneWindows := row.ShardStalled + row.ShardLaneWindows
		fmt.Fprintf(&b, "  shard %s/%d: %d workers, %d windows, %d of %d lane-windows stalled (%.1f%%), %d merged\n",
			row.Spec, row.Repeat, row.ShardWorkers, row.ShardWindows, row.ShardStalled, laneWindows,
			100*float64(row.ShardStalled)/float64(max(1, laneWindows)), row.ShardMerged)
		fmt.Fprintf(&b, "    speed-up bound %.3f = (work %d + global %d) / (span %d + global %d)\n",
			row.ShardBound(), row.ShardWork, row.ShardGlobalEvents, row.ShardSpan, row.ShardGlobalEvents)
		fmt.Fprintf(&b, "    wall: merge %.0f ms, phase A %.0f ms, phase B %.0f ms with lanes busy %.0f ms (%.2f workers)\n",
			row.ShardMergeMS, row.ShardPhaseAMS, row.ShardPhaseBMS, row.ShardLaneBusyMS,
			row.ShardLaneBusyMS/max(row.ShardPhaseBMS, 1e-9))
		if len(row.PairWindows) > 0 {
			fmt.Fprintf(&b, "    %-9s %12s %10s %12s %10s\n", "src→dst", "windows", "stalled", "width ms", "mean ms")
			for _, p := range row.PairWindows {
				fmt.Fprintf(&b, "    %-9s %12d %10d %12d %10.1f\n",
					laneName(p.Src)+"→"+laneName(p.Dst), p.Count, p.Stalled, p.WidthSum, p.MeanWidth())
			}
		}
	}
	fmt.Fprintf(&b, "  process: heap %.1f MiB, peak RSS %.1f MiB, %d GCs (%.1f ms pause), GOMAXPROCS %d\n",
		float64(tel.Process.HeapAllocBytes)/(1<<20), tel.Process.PeakRSSMB, tel.Process.NumGC,
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
