package mining

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/types"
)

// withholderConfig builds a registry with one withholding attacker at
// the given share and honest remainder.
func withholderConfig(attackerShare float64) Config {
	cfg := DefaultConfig()
	cfg.Pools = []PoolConfig{
		{Name: "Attacker", HashrateShare: attackerShare, GatewayRegions: []geo.Region{geo.EasternAsia},
			SwitchDelayMean: 850 * sim.Millisecond, Withholder: true},
		{Name: "Honest", HashrateShare: 1 - attackerShare, GatewayRegions: []geo.Region{geo.WesternEurope},
			SwitchDelayMean: 850 * sim.Millisecond},
	}
	return cfg
}

func TestWithholderReleasesBursts(t *testing.T) {
	engine := sim.NewEngine()
	rng := sim.NewRNG(21)
	cfg := withholderConfig(0.3)
	cfg.BlockLimit = 3000
	type pub struct {
		now  sim.Time
		pool string
		num  uint64
	}
	var pubs []pub
	cfg.OnBlock = func(ev BlockEvent) {
		pubs = append(pubs, pub{ev.Now, ev.Pool, ev.Block.Header.Number})
	}
	s, err := NewSimulator(engine, rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	engine.Run()

	// The attacker's publications must include same-instant bursts of
	// withholdReleaseCap consecutive heights.
	bursts := 0
	attackerBlocks := 0
	for i := 1; i < len(pubs); i++ {
		if pubs[i].pool != "Attacker" {
			continue
		}
		attackerBlocks++
		if pubs[i-1].pool == "Attacker" && pubs[i].now == pubs[i-1].now && pubs[i].num == pubs[i-1].num+1 {
			bursts++
		}
	}
	if attackerBlocks == 0 {
		t.Fatal("attacker published nothing")
	}
	if bursts == 0 {
		t.Fatal("no burst releases observed")
	}
	// The chain still grows and includes attacker blocks on main.
	main := s.Tree().MainChain()
	attackerMain := 0
	for _, b := range main[1:] {
		if b.Header.MinerLabel == "Attacker" {
			attackerMain++
		}
	}
	if attackerMain == 0 {
		t.Fatal("attacker never landed on main chain")
	}
}

func TestWithholderTriggersOnThreat(t *testing.T) {
	// When the honest chain catches up, the private chain must be
	// released rather than held forever: no attacker blocks may remain
	// unpublished at the end beyond the final in-flight window.
	engine := sim.NewEngine()
	rng := sim.NewRNG(22)
	cfg := withholderConfig(0.2)
	cfg.BlockLimit = 2000
	published := map[types.Hash]bool{}
	cfg.OnBlock = func(ev BlockEvent) { published[ev.Block.Hash()] = true }
	s, err := NewSimulator(engine, rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	engine.Run()
	// Every block in the tree was published through the hook.
	main := s.Tree().MainChain()
	for _, b := range main[1:] {
		if !published[b.Hash()] {
			t.Fatalf("main block %s never published", b.Hash().Short())
		}
	}
	// At most cap-1 private blocks may remain stuck at the very end.
	for _, p := range s.pools {
		if len(p.private) >= withholdReleaseCap {
			t.Fatalf("%s: private chain of %d never released", p.cfg.Name, len(p.private))
		}
	}
}

func TestHonestPoolsHaveNoPrivateChains(t *testing.T) {
	s := runSim(t, 23, 500, nil)
	for _, p := range s.pools {
		if len(p.private) != 0 {
			t.Fatalf("honest pool %s accumulated a private chain of %d", p.cfg.Name, len(p.private))
		}
	}
}
