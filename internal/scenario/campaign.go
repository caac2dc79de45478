package scenario

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/store"
)

// The campaign rules both front ends (cmd/ethrepro, internal/server)
// run on: which specs a request selects, which scenarios leave a trace
// on the run, how many repeats it gets, and the order a run directory
// is written and sealed in. They live here, once, so a campaign
// submitted over HTTP and the same campaign run from the CLI cannot
// drift apart.

// Extend compiles every set and merges its variants into the registry
// under experiments.Merge's collision rules, without mutating it.
func Extend(registry []experiments.Spec, sets []*Set) ([]experiments.Spec, error) {
	for _, set := range sets {
		specs, err := set.Compile()
		if err == nil {
			registry, err = experiments.Merge(registry, specs...)
		}
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", set.Base.Name, err)
		}
	}
	return registry, nil
}

// Resolve turns a campaign request — spec or outcome ids, scenario
// sets, a repeat count (<= 0 when the caller named none) — into what
// runs. No ids selects the scenarios' variants, or the whole registry
// when there are no scenarios. The returned sets are the active ones,
// those with at least one selected variant: a selection may exclude a
// whole scenario, and then neither its suggested repeats nor its
// embedded document apply. An unnamed repeat count becomes 1, raised to
// the largest suggestion among the active sets.
func Resolve(registry []experiments.Spec, sets []*Set, ids []string, repeats int) ([]experiments.Spec, []*Set, int, error) {
	registry, err := Extend(registry, sets)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(ids) == 0 {
		for _, set := range sets {
			for _, v := range set.Variants {
				ids = append(ids, v.ID())
			}
		}
	}
	specs, err := experiments.SelectIn(registry, ids)
	if err != nil {
		return nil, nil, 0, err
	}
	selected := make(map[string]bool, len(specs))
	for _, sp := range specs {
		selected[sp.ID] = true
	}
	var active []*Set
	for _, set := range sets {
		for _, v := range set.Variants {
			if selected[v.ID()] {
				active = append(active, set)
				break
			}
		}
	}
	if repeats <= 0 {
		repeats = 1
		for _, set := range active {
			repeats = max(repeats, set.Base.Repeats)
		}
	}
	return specs, active, repeats, nil
}

// Seal writes a finished campaign into st as a run directory: the
// experiments artifacts, the embedded scenario.json when sets ran (so
// the directory replays without the original files), telemetry.json
// when tel is non-nil, and the digest manifest last so its Merkle root
// covers every blob before it.
//
// The store may hold an earlier campaign. Its manifest goes first —
// from then until the last write the directory has none, so "has a
// manifest" always means "this seal finished" and an interrupted seal
// cannot pass for the old run — and its scenario and telemetry blobs
// are deleted when this campaign has none, so they cannot mislabel it
// under the fresh manifest.
func Seal(st store.Store, report *experiments.Report, sets []*Set, tel *experiments.Telemetry) error {
	if err := st.Delete(store.ManifestFile); err != nil {
		return err
	}
	if err := experiments.WriteArtifacts(st, report); err != nil {
		return err
	}
	var err error
	if len(sets) > 0 {
		err = WriteArtifact(st, sets)
	} else {
		err = st.Delete(ArtifactFile)
	}
	if err != nil {
		return err
	}
	if tel != nil {
		err = experiments.WriteTelemetry(st, tel)
	} else {
		err = st.Delete(experiments.TelemetryFile)
	}
	if err != nil {
		return err
	}
	return experiments.WriteManifest(st, report)
}
