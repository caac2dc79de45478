// Geoimpact: reproduce the paper's core geographic finding (Figs. 2-3)
// and demonstrate its cause by re-running the same campaign with every
// pool's gateways dispersed across all regions.
//
//	go run ./examples/geoimpact [-short]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/geo"
)

// short downsizes both campaigns for CI smoke runs (make examples).
var short = flag.Bool("short", false, "run a downscaled demo")

func main() {
	flag.Parse()
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func campaign(disperse bool) (*core.CampaignResult, error) {
	cfg := core.DefaultCampaignConfig(7)
	cfg.NetworkNodes = 300
	cfg.Blocks = 250
	if *short {
		cfg.NetworkNodes = 120
		cfg.Blocks = 80
	}
	if disperse {
		everywhere := geo.Regions()
		for i := range cfg.Mining.Pools {
			cfg.Mining.Pools[i].GatewayRegions = everywhere
		}
	}
	return core.RunCampaign(cfg)
}

func run() error {
	fmt.Println("=== Paper placement: Asian pools gateway in Eastern Asia ===")
	paper, err := campaign(false)
	if err != nil {
		return err
	}
	first, err := analysis.FirstObservations(paper.Index)
	if err != nil {
		return err
	}
	fmt.Println(analysis.RenderFirstObservations(first))

	pools, err := analysis.PoolFirstObservations(paper.Index, 8)
	if err != nil {
		return err
	}
	var vantages []string
	for _, n := range paper.Nodes {
		vantages = append(vantages, n.Name())
	}
	fmt.Println(analysis.RenderPoolObservations(pools, vantages))

	fmt.Println("=== Counterfactual: every pool gateways everywhere ===")
	dispersed, err := campaign(true)
	if err != nil {
		return err
	}
	firstD, err := analysis.FirstObservations(dispersed.Index)
	if err != nil {
		return err
	}
	fmt.Println(analysis.RenderFirstObservations(firstD))

	fmt.Printf("EA first-observation share: %.1f%% (paper placement) vs %.1f%% (dispersed)\n",
		first.Share["EA"]*100, firstD.Share["EA"]*100)
	fmt.Println("The EA advantage is a property of gateway concentration, not of")
	fmt.Println("the overlay itself — the paper's §III-B2 conclusion.")
	return nil
}
