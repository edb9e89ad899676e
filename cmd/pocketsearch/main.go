// Command pocketsearch is an interactive PocketSearch session: it
// builds a simulated ecosystem, provisions a phone with the community
// cache, and serves queries typed on stdin — mirroring the paper's
// prototype GUI, where cached results appear instantly and misses go
// out over the (simulated) radio.
//
// Try queries like "site0", "site0.com" (an alias for the same page),
// "q1 facts" (a multi-result query), or anything else to see a miss.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"pocketcloudlets"
	"pocketcloudlets/internal/engine"
)

func main() {
	var (
		radioName = flag.String("radio", "3g", "radio technology: 3g, edge, wifi")
		share     = flag.Float64("share", 0.55, "community cache cumulative-volume share")
		seed      = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()

	var tech pocketcloudlets.RadioTech
	switch strings.ToLower(*radioName) {
	case "3g":
		tech = pocketcloudlets.Radio3G
	case "edge":
		tech = pocketcloudlets.RadioEDGE
	case "wifi":
		tech = pocketcloudlets.RadioWiFi
	default:
		fmt.Fprintf(os.Stderr, "unknown radio %q\n", *radioName)
		os.Exit(2)
	}

	fmt.Println("building simulated ecosystem (community logs, cache)...")
	ucfg := engine.Config{
		NavPairs:    24000,
		NonNavPairs: 120000,
		NonNavSegments: []engine.Segment{
			{Queries: 100, ResultsPerQuery: 6},
			{Queries: 400, ResultsPerQuery: 4},
			{Queries: 1500, ResultsPerQuery: 3},
			{Queries: 8000, ResultsPerQuery: 2},
		},
	}
	sim, err := pocketcloudlets.NewSimulation(pocketcloudlets.SimConfig{
		Seed: *seed, Users: 4000, UniverseConfig: &ucfg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	content, err := sim.CommunityContent(0, *share)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	phone := sim.NewPhone(tech)
	ps, err := sim.NewPocketSearch(phone, content, pocketcloudlets.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ads, err := sim.NewPocketAds(phone, content)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("cache ready: %d pairs covering %.0f%% of community volume (+%d cached ads); radio: %s\n",
		len(content.Triplets), 100*content.CoveredShare, ads.Len(), tech)
	fmt.Println("type a query (e.g. \"site0\"); Ctrl-D to exit")

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("search> ")
		if !sc.Scan() {
			break
		}
		query := strings.TrimSpace(sc.Text())
		if query == "" {
			continue
		}
		// The auto-suggest box: instant completions and cached
		// results as the user types.
		if comps := ps.Autocomplete(query, 3); len(comps) > 0 {
			fmt.Print("  [completions]")
			for _, c := range comps {
				fmt.Printf("  %s", c.Query)
			}
			fmt.Println()
		}
		suggestions := ps.Suggest(query)
		if len(suggestions) > 0 {
			fmt.Println("  [auto-suggest, instant]")
			for i, r := range suggestions {
				if i >= 2 {
					break
				}
				fmt.Printf("    %d. %s — %s\n", i+1, r.Title, r.DisplayURL)
			}
		}
		// Submit the query, clicking the top result.
		clickURL := ""
		if len(suggestions) > 0 {
			clickURL = suggestions[0].URL
		} else if resp, ok := sim.Engine.Search(query); ok {
			clickURL = sim.Universe.ResultURL(resp.ID(0))
		}
		out, err := ps.Query(query, clickURL)
		if err != nil {
			fmt.Fprintf(os.Stderr, "  error: %v\n", err)
			continue
		}
		path := "cache HIT (no radio)"
		if !out.Hit {
			path = fmt.Sprintf("MISS: fetched over %s", tech)
		}
		fmt.Printf("  %s in %v (lookup %v, fetch %v, network %v, render %v)\n",
			path, out.ResponseTime().Round(0), out.Lookup, out.Fetch.Round(0),
			out.Network.Round(0), out.Render.Round(0))
		for i, r := range out.Results {
			if i >= 3 {
				break
			}
			fmt.Printf("    %d. %s — %s\n", i+1, r.Title, r.DisplayURL)
		}
		for _, ad := range ads.Serve(query, out.Hit) {
			fmt.Printf("    [ad] %s\n", ad.Text)
		}
		fmt.Printf("  device: %.1f J consumed, %d radio wakeups, hit rate %.0f%%\n",
			phone.TotalEnergy(), phone.Link().Wakeups(), 100*ps.Stats().HitRate())
	}
	fmt.Println()
}
