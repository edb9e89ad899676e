// Quickstart: build a simulated mobile ecosystem, provision a phone
// with a PocketSearch cache from community search logs, and serve a
// few queries — comparing a local cache hit against the same query
// over the 3G radio.
package main

import (
	"fmt"
	"log"

	"pocketcloudlets"
)

func main() {
	// 1. A simulated ecosystem: corpus, cloud search engine, and a
	// population of mobile users whose logs feed the community cache.
	// (The default population is the calibrated 20000 users; smaller
	// is faster and fine for a demo.)
	sim, err := pocketcloudlets.NewSimulation(pocketcloudlets.SimConfig{Seed: 42, Users: 3000})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Extract the community cache content from last month's logs:
	// the most popular (query, clicked result) pairs covering 55% of
	// the community's query volume — the paper's saturation point.
	content, err := sim.CommunityContent(0, 0.55)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("community cache: %d pairs covering %.0f%% of volume\n",
		len(content.Triplets), 100*content.CoveredShare)

	// 3. A phone with a 3G radio, provisioned overnight.
	phone := sim.NewPhone(pocketcloudlets.Radio3G)
	ps, err := sim.NewPocketSearch(phone, content, pocketcloudlets.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// 4. A popular query hits the cache: no radio, ~378 ms.
	query, clickURL := sim.PairStrings(content.Triplets[0].Pair)
	hit, err := ps.Query(query, clickURL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%q -> %s\n", query, clickURL)
	fmt.Printf("  served from cache: %v, response time %v, radio wakeups %d\n",
		hit.Hit, hit.ResponseTime().Round(0), phone.Link().Wakeups())

	// 5. An obscure query misses: the radio wakes up and the full
	// result page downloads over 3G.
	tailQuery, tailURL := sim.PairStrings(sim.Universe.NonNavPair(sim.Universe.Config().NonNavPairs - 1))
	miss, err := ps.Query(tailQuery, tailURL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%q -> %s\n", tailQuery, tailURL)
	fmt.Printf("  served from cache: %v, response time %v (network %v), radio wakeups %d\n",
		miss.Hit, miss.ResponseTime().Round(0), miss.Stages.Network().Round(0), phone.Link().Wakeups())

	ratio := float64(miss.ResponseTime()) / float64(hit.ResponseTime())
	fmt.Printf("\nlocal serving is %.0fx faster — the paper's headline 16x\n", ratio)

	// 6. The personalization component cached the miss: repeating it
	// now hits locally.
	again, err := ps.Query(tailQuery, tailURL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repeated obscure query: served from cache: %v in %v\n",
		again.Hit, again.ResponseTime().Round(0))
}
