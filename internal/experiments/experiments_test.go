package experiments

import (
	"strings"
	"sync"
	"testing"
)

// These tests assert the paper's qualitative findings — the shapes the
// reproduction must preserve — at small scale. Absolute values are
// checked against generous bands; EXPERIMENTS.md records the
// medium-scale numbers.
//
// Experiments are selected from the registry (the same path
// cmd/ethrepro takes) and campaigns shared by several figures run
// once, memoized across the tests that assert on them.

// specOutcomes runs the registered spec at seed 42 / ScaleSmall,
// memoizing per spec ID so figure tests sharing a campaign don't rerun
// it.
var specOutcomes = func() func(t *testing.T, specID string) map[string]*Outcome {
	var mu sync.Mutex
	type cached struct {
		m   map[string]*Outcome
		err error
	}
	cache := map[string]*cached{}
	return func(t *testing.T, specID string) map[string]*Outcome {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		c, ok := cache[specID]
		if !ok {
			c = &cached{}
			cache[specID] = c
			spec, found := Lookup(specID)
			if !found {
				t.Fatalf("spec %s not registered", specID)
			}
			var outs []*Outcome
			outs, c.err = spec.Run(42, ScaleSmall)
			if c.err == nil {
				c.m = map[string]*Outcome{}
				for _, o := range outs {
					c.m[o.ID] = o
				}
			}
		}
		if c.err != nil {
			t.Fatal(c.err)
		}
		return c.m
	}
}()

func networkOutcomes(t *testing.T) map[string]*Outcome {
	t.Helper()
	return specOutcomes(t, "network")
}

func chainOutcomes(t *testing.T) map[string]*Outcome {
	t.Helper()
	return specOutcomes(t, "chain")
}

// skipInShort gates the transaction-workload campaigns (tens of
// seconds each) out of `go test -short` — the CI tier — while keeping
// them in the full suite.
func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("workload campaign is too slow for -short; run the full suite")
	}
}

func TestFigure1Shape(t *testing.T) {
	f1 := networkOutcomes(t)["F1"]
	median := f1.Metrics["median_ms"]
	p99 := f1.Metrics["p99_ms"]
	// Propagation is orders of magnitude below the 13.3 s inter-block
	// time (the paper's §III-A headline).
	if median <= 0 || median > 500 {
		t.Fatalf("median %v ms out of band", median)
	}
	if p99 <= median || p99 > 2000 {
		t.Fatalf("p99 %v ms out of band (median %v)", p99, median)
	}
	if !strings.Contains(f1.Rendered, "Figure 1") {
		t.Fatal("missing render")
	}
}

func TestFigure2Shape(t *testing.T) {
	f2 := networkOutcomes(t)["F2"]
	ea, na := f2.Metrics["EA_share"], f2.Metrics["NA_share"]
	we, ce := f2.Metrics["WE_share"], f2.Metrics["CE_share"]
	// The paper's geographic finding: EA leads (~40%), NA trails
	// (~4x less likely than EA).
	if ea < 0.30 {
		t.Fatalf("EA share %v too low", ea)
	}
	if na > ea/2 {
		t.Fatalf("NA share %v should trail EA %v by far", na, ea)
	}
	if ea < we || ea < ce {
		t.Fatalf("EA %v must lead WE %v and CE %v", ea, we, ce)
	}
	total := ea + na + we + ce
	if total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum to %v", total)
	}
}

func TestFigure3Shape(t *testing.T) {
	f3 := networkOutcomes(t)["F3"]
	// Asian pools' blocks are first observed in EA most of the time
	// (gateway concentration, the paper's Fig. 3 point).
	if f3.Metrics["sparkpool_EA_first"] < 0.5 {
		t.Fatalf("Sparkpool EA-first %v too low", f3.Metrics["sparkpool_EA_first"])
	}
	if f3.Metrics["pools"] < 10 {
		t.Fatalf("too few pools attributed: %v", f3.Metrics["pools"])
	}
}

func TestTable2Shape(t *testing.T) {
	o := specOutcomes(t, "T2")["T2"]
	ann := o.Metrics["announce_mean"]
	whole := o.Metrics["whole_mean"]
	combined := o.Metrics["combined_mean"]
	// The paper's Table II: direct block deliveries dominate
	// announcements, and total redundancy sits near ln(n).
	if whole <= ann {
		t.Fatalf("whole blocks (%v) must outnumber announcements (%v)", whole, ann)
	}
	if combined < ann+whole-0.01 || combined > ann+whole+0.01 {
		t.Fatalf("combined %v != ann %v + whole %v", combined, ann, whole)
	}
	if combined < 2 || combined > 25 {
		t.Fatalf("combined receptions %v out of band", combined)
	}
}

func TestFigure4And5Shape(t *testing.T) {
	skipInShort(t)
	m := specOutcomes(t, "commit")
	f4, f5 := m["F4"], m["F5"]
	if f4 == nil || f5 == nil {
		t.Fatal("missing outcomes")
	}
	inclusion := f4.Metrics["inclusion_median_s"]
	conf12 := f4.Metrics["conf12_median_s"]
	// Inclusion well under a minute median; the 12-confirmation rule
	// costs ~12 * 13.3 s more (paper: 189 s).
	if inclusion <= 0 || inclusion > 120 {
		t.Fatalf("inclusion median %v s out of band", inclusion)
	}
	if conf12 < 120 || conf12 > 320 {
		t.Fatalf("12-conf median %v s out of band (paper 189)", conf12)
	}
	if conf12 <= inclusion {
		t.Fatal("confirmation must cost more than inclusion")
	}
	ooo := f5.Metrics["ooo_fraction"]
	// Paper: 11.54% out-of-order.
	if ooo < 0.04 || ooo > 0.25 {
		t.Fatalf("out-of-order fraction %v out of band", ooo)
	}
	// Out-of-order transactions commit slower at the tail.
	if p90o, ok := f5.Metrics["ooo_p90_s"]; ok {
		if p90i, ok := f5.Metrics["inorder_p90_s"]; ok && p90o <= p90i {
			t.Fatalf("ooo p90 %v should exceed in-order p90 %v", p90o, p90i)
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	f6 := chainOutcomes(t)["F6"]
	frac := f6.Metrics["empty_fraction"]
	// Paper: 1.45% empty overall; Zhizhu >25%; Nanopool zero.
	if frac < 0.005 || frac > 0.03 {
		t.Fatalf("empty fraction %v out of band", frac)
	}
	if f6.Metrics["zhizhu_rate"] < 0.15 {
		t.Fatalf("Zhizhu rate %v too low", f6.Metrics["zhizhu_rate"])
	}
	if f6.Metrics["nanopool_empty"] != 0 {
		t.Fatalf("Nanopool mined %v empty blocks", f6.Metrics["nanopool_empty"])
	}
}

func TestTable3Shape(t *testing.T) {
	t3 := chainOutcomes(t)["T3"]
	len1 := t3.Metrics["len1_total"]
	len2 := t3.Metrics["len2_total"]
	len3 := t3.Metrics["len3_total"]
	// The paper's fork-length hierarchy: len1 dominates (~97%), len2
	// is ~2.6%, len3 is rare.
	if len1 < 100 {
		t.Fatalf("too few forks: %v", len1)
	}
	if len2 >= len1/10 {
		t.Fatalf("len2 %v should be well under len1 %v", len2, len1)
	}
	if len3 > len2 {
		t.Fatalf("len3 %v should not exceed len2 %v", len3, len2)
	}
	// Length-1 forks are very likely recognized as uncles (paper:
	// 15,100 / 15,171).
	if t3.Metrics["len1_recognized"] < 0.85*len1 {
		t.Fatalf("len1 recognized %v / %v too low", t3.Metrics["len1_recognized"], len1)
	}
	// Off-main block share near the paper's ~7%.
	main := t3.Metrics["main_blocks"]
	offMain := t3.Metrics["uncle_blocks"] + t3.Metrics["unrecognized"]
	rate := offMain / (main + offMain)
	if rate < 0.03 || rate > 0.13 {
		t.Fatalf("fork block rate %v out of band", rate)
	}
}

func TestOneMinerForkShape(t *testing.T) {
	s1 := chainOutcomes(t)["S1"]
	pairs := s1.Metrics["pairs"]
	triples := s1.Metrics["triples"]
	if pairs < 20 {
		t.Fatalf("too few one-miner pairs: %v", pairs)
	}
	if triples > pairs/5 {
		t.Fatalf("triples %v should be rare vs pairs %v", triples, pairs)
	}
	// Paper: 98% of 2-/3-tuples got rewarded, 56% share tx sets, >11%
	// of forks are one-miner.
	if s1.Metrics["recognized_fraction"] < 0.7 {
		t.Fatalf("recognized fraction %v too low", s1.Metrics["recognized_fraction"])
	}
	if st := s1.Metrics["same_tx_fraction"]; st < 0.4 || st > 0.75 {
		t.Fatalf("same-tx fraction %v out of band (paper 0.56)", st)
	}
	if s1.Metrics["fraction_of_forks"] < 0.05 {
		t.Fatalf("one-miner share of forks %v too low", s1.Metrics["fraction_of_forks"])
	}
}

func TestFigure7Shape(t *testing.T) {
	f7 := chainOutcomes(t)["F7"]
	// At 20k blocks Ethermine (25.3%) is expected to reach runs of
	// ~6-7 (n * 0.2532^k ~ 1 at k=7).
	if f7.Metrics["ethermine_max_run"] < 4 {
		t.Fatalf("Ethermine max run %v too short", f7.Metrics["ethermine_max_run"])
	}
	if f7.Metrics["max_run"] < f7.Metrics["ethermine_max_run"] {
		t.Fatal("global max below Ethermine's")
	}
	if !strings.Contains(f7.Rendered, "censor") && !strings.Contains(f7.Rendered, "Security") {
		t.Fatal("censorship table missing from render")
	}
}

func TestWholeChainShape(t *testing.T) {
	o := specOutcomes(t, "S2")["S2"]
	if o.Metrics["blocks"] < 90_000 {
		t.Fatalf("whole-chain run too short: %v", o.Metrics["blocks"])
	}
	// 100k blocks: expect ~36 runs of >=8 for Ethermine
	// (100k * 0.2532^8), so len_8 must exist.
	if o.Metrics["len_8"] == 0 && o.Metrics["len_9"] == 0 {
		t.Fatalf("no long sequences found: %+v", o.Metrics)
	}
}

func TestLesson1Shape(t *testing.T) {
	o := specOutcomes(t, "L1")["L1"]
	std := o.Metrics["standard_recognized"]
	res := o.Metrics["restricted_recognized"]
	if std <= 0 {
		t.Skip("no one-miner forks recognized in the standard run")
	}
	// The §V restriction eliminates one-miner uncle rewards.
	if res >= std {
		t.Fatalf("restricted recognition %v should drop below standard %v", res, std)
	}
}

func TestAblationFanoutShape(t *testing.T) {
	o := specOutcomes(t, "A1")["A1"]
	// Push-all floods more copies than sqrt-push; announce-only the
	// fewest direct bodies (it trades redundancy for pull latency).
	if o.Metrics["push-all_receptions"] <= o.Metrics["sqrt-push_receptions"] {
		t.Fatalf("push-all %v should exceed sqrt %v",
			o.Metrics["push-all_receptions"], o.Metrics["sqrt-push_receptions"])
	}
	if o.Metrics["announce-only_median_ms"] <= o.Metrics["push-all_median_ms"] {
		t.Fatalf("announce-only median %v should exceed push-all %v",
			o.Metrics["announce-only_median_ms"], o.Metrics["push-all_median_ms"])
	}
}

func TestAblationGatewaysShape(t *testing.T) {
	o := specOutcomes(t, "A2")["A2"]
	// Dispersing every pool's gateways erases most of EA's advantage.
	if o.Metrics["dispersed_EA"] >= o.Metrics["paper_EA"] {
		t.Fatalf("dispersed EA %v should fall below paper EA %v",
			o.Metrics["dispersed_EA"], o.Metrics["paper_EA"])
	}
}

func TestScaleString(t *testing.T) {
	if ScaleSmall.String() != "small" || ScaleMedium.String() != "medium" ||
		ScalePaper.String() != "paper" || Scale(0).String() != "unknown" {
		t.Fatal("scale names")
	}
}

func TestParseScale(t *testing.T) {
	for name, want := range map[string]Scale{
		"small": ScaleSmall, "medium": ScaleMedium, "paper": ScalePaper,
		"stress": ScaleStress, "stress100k": ScaleStress100k,
	} {
		got, err := ParseScale(name)
		if err != nil || got != want || got.String() != name {
			t.Errorf("%q: %v, %v", name, got, err)
		}
	}
	// The help a bad name gets lists every name that parses, and the
	// list ends where the constants do.
	_, err := ParseScale("gigantic")
	if err == nil || !strings.HasSuffix(err.Error(), "(small|medium|paper|stress|stress100k)") {
		t.Errorf("unknown scale: %v, want the full list of names", err)
	}
	if got := (ScaleStress100k + 1).String(); got != "unknown" {
		t.Errorf("scale past the last constant is %q", got)
	}
}
