package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Spec is one registered experiment: a named, seedable unit of work
// that regenerates one or more paper artifacts. Specs that share a
// campaign (the paper derives Figs. 1-3 from one month of logs) are
// registered as a single spec producing several outcomes, so the
// campaign runs once however many of its figures are requested.
type Spec struct {
	// ID is the registry key (e.g. "network", "T2", "W1").
	ID string
	// Title describes the spec for the registry table.
	Title string
	// Produces lists the outcome IDs the spec emits, in order.
	Produces []string
	// Run executes the experiment. It must be a pure function of
	// (seed, scale): the runner fans (spec, repeat) pairs across
	// workers and relies on this for byte-identical results at any
	// parallelism.
	Run func(seed uint64, sc Scale) ([]*Outcome, error) `json:"-"`
	// Cost is what one run costs: its engine events at -scale small,
	// seed 7, as its telemetry.json row reads them. The runner starts
	// the costliest runs first. Zero means undeclared, and such a spec
	// starts before every declared one; a spec that dispatches no event
	// declares 1.
	Cost uint64
}

// registry holds every spec in registration order (the order
// cmd/ethrepro reports them in).
var registry []Spec

func register(s Spec) {
	for _, have := range registry {
		if strings.EqualFold(have.ID, s.ID) {
			panic("experiments: duplicate spec " + s.ID)
		}
	}
	registry = append(registry, s)
}

func init() {
	register(Spec{
		ID: "T1", Title: "Table I — measurement infrastructure",
		Produces: []string{"T1"},
		// A static table dispatches no engine event.
		Cost: 1,
		Run: func(uint64, Scale) ([]*Outcome, error) {
			return []*Outcome{Table1()}, nil
		},
	})
	register(Spec{
		ID: "network", Title: "Figs. 1-3 — propagation, first observation, pool influence",
		Produces: outputIDs(networkOutputs),
		Cost:     473_148,
		Run:      NetworkExperiments,
	})
	register(Spec{
		ID: "T2", Title: "Table II — redundant block receptions",
		Produces: outputIDs(table2Outputs),
		Cost:     475_674,
		Run:      Table2,
	})
	register(Spec{
		ID: "commit", Title: "Figs. 4-5 — commit times and reordering",
		Produces: outputIDs(commitOutputs),
		Cost:     12_487_001,
		Run:      CommitExperiments,
	})
	register(Spec{
		ID: "chain", Title: "Fig. 6, Table III, §III-C5, Fig. 7 — chain-level statistics",
		Produces: outputIDs(chainOutputs),
		Cost:     322_640,
		Run:      ChainExperiments,
	})
	register(Spec{
		ID: "S2", Title: "§III-D — whole-chain sequence tail",
		Produces: []string{"S2"},
		Cost:     1_600_000,
		Run:      WholeChainExperiment,
	})
	register(Spec{
		ID: "W1", Title: "§III-D — withholding burst test",
		Produces: []string{"W1"},
		Cost:     90_720,
		Run:      WithholdingExperiment,
	})
	register(Spec{
		ID: "C1", Title: "§III-C1 — Constantinople bomb-delay ablation",
		Produces: []string{"C1"},
		Cost:     1_920_000,
		Run:      ConstantinopleExperiment,
	})
	register(Spec{
		// INC was historically registered as R1; it was renamed when
		// R1/R2 became the relay-protocol specs.
		ID: "INC", Title: "Incentive accounting (§III-C3, §III-C5)",
		Produces: []string{"INC"},
		Cost:     80_675,
		Run:      RevenueExperiment,
	})
	for i := range grids {
		g := &grids[i]
		register(Spec{ID: g.id, Title: g.title, Produces: []string{g.id}, Run: g.run, Cost: g.cost})
	}
}

// Merge appends specs compiled at runtime (scenario files) to a base
// list without touching the registry, which is immutable after init.
// Unlike init-time registration it reports collisions as errors:
// scenario names come from user files, not code. Both the spec ID and
// every produced outcome ID must be new — an outcome collision would
// make Lookup ambiguous.
func Merge(base []Spec, extra ...Spec) ([]Spec, error) {
	out := make([]Spec, len(base), len(base)+len(extra))
	copy(out, base)
	for _, s := range extra {
		if s.ID == "" {
			return nil, fmt.Errorf("experiments: spec needs an ID")
		}
		if s.Run == nil {
			return nil, fmt.Errorf("experiments: spec %s needs a Run function", s.ID)
		}
		for _, id := range append([]string{s.ID}, s.Produces...) {
			if _, taken := LookupIn(out, id); taken {
				return nil, fmt.Errorf("experiments: %q already registered", id)
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// Specs returns every registered spec in registration order.
func Specs() []Spec {
	out := make([]Spec, len(registry))
	copy(out, registry)
	return out
}

// Lookup finds a registered spec by its ID or by an outcome ID it
// produces (case-insensitive), so callers can ask for "F1" and get
// the shared network campaign.
func Lookup(id string) (Spec, bool) {
	return LookupIn(registry, id)
}

// LookupIn is Lookup over an explicit spec list (registry built-ins
// merged with runtime-compiled scenario specs).
func LookupIn(specs []Spec, id string) (Spec, bool) {
	for _, s := range specs {
		if strings.EqualFold(s.ID, id) {
			return s, true
		}
		for _, p := range s.Produces {
			if strings.EqualFold(p, id) {
				return s, true
			}
		}
	}
	return Spec{}, false
}

// Select resolves a list of spec or outcome IDs against the registry.
func Select(ids []string) ([]Spec, error) {
	return SelectIn(Specs(), ids)
}

// SelectIn resolves a list of spec or outcome IDs to the matching
// specs from the given list, deduplicated, in list order. An empty
// list of IDs selects every spec. Unknown IDs are an error listing
// the valid names.
func SelectIn(specs []Spec, ids []string) ([]Spec, error) {
	if len(ids) == 0 {
		return specs, nil
	}
	want := make(map[string]bool, len(specs))
	for _, id := range ids {
		s, ok := LookupIn(specs, strings.TrimSpace(id))
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)",
				id, strings.Join(knownIDsIn(specs), ", "))
		}
		want[s.ID] = true
	}
	var out []Spec
	for _, s := range specs {
		if want[s.ID] {
			out = append(out, s)
		}
	}
	return out, nil
}

// knownIDsIn returns every selectable name in specs: spec IDs plus the
// outcome IDs they produce, sorted.
func knownIDsIn(specs []Spec) []string {
	seen := map[string]bool{}
	var ids []string
	for _, s := range specs {
		for _, id := range append([]string{s.ID}, s.Produces...) {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	sort.Strings(ids)
	return ids
}
