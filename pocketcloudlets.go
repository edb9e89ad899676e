// Package pocketcloudlets is a from-scratch implementation of the
// Pocket Cloudlets architecture (Koukoumidis, Lymberopoulos, Strauss,
// Liu, Burger — ASPLOS 2011): cloud-service caches that live in the
// abundant non-volatile memory of a mobile device and serve requests
// locally, avoiding the latency and energy cost of waking the cellular
// radio.
//
// The package is a facade over the full system:
//
//   - A simulated mobile ecosystem: a procedural query/result corpus
//     and cloud search engine, a calibrated synthetic mobile-search
//     workload standing in for the paper's 200M-query m.bing.com logs,
//     a NAND-flash device model, and 3G/EDGE/802.11g radio models with
//     energy accounting.
//   - PocketSearch, the paper's showcase cloudlet: a DRAM query hash
//     table over a 32-file flash database, preloaded from community
//     search logs and personalized by the user's own clicks.
//   - The multi-cloudlet OS layer of Section 7: storage quotas,
//     coordinated cross-cloudlet eviction, and access control.
//
// A minimal session:
//
//	sim, _ := pocketcloudlets.NewSimulation(pocketcloudlets.SimConfig{Seed: 1})
//	content, _ := sim.CommunityContent(0, 0.55)     // build from month 0
//	phone := sim.NewPhone(pocketcloudlets.Radio3G)
//	ps, _ := sim.NewPocketSearch(phone, content, pocketcloudlets.Options{})
//	out, _ := ps.Query("site42", "www.site42.com/") // hit: ~378 ms, no radio
package pocketcloudlets

import (
	"fmt"
	"sort"

	"pocketcloudlets/internal/adlet"
	"pocketcloudlets/internal/cachegen"
	"pocketcloudlets/internal/cloudletos"
	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/flashsim"
	"pocketcloudlets/internal/fleet"
	"pocketcloudlets/internal/loadgen"
	"pocketcloudlets/internal/pocketsearch"
	"pocketcloudlets/internal/radio"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/updater"
	"pocketcloudlets/internal/workload"
)

// Re-exported types: the facade exposes the internal packages' types
// its callers name, and those its signatures need, under one import
// path.
type (
	// Universe is the procedural query/result corpus.
	Universe = engine.Universe
	// Engine is the cloud search engine over a Universe.
	Engine = engine.Engine
	// Generator produces synthetic per-user search streams.
	Generator = workload.Generator
	// UserProfile is one synthetic user.
	UserProfile = workload.UserProfile
	// Content is generated cache content (the community component).
	Content = cachegen.Content
	// Device is a simulated smartphone.
	Device = device.Device
	// PocketSearch is the on-device search cloudlet.
	PocketSearch = pocketsearch.Cache
	// Options configure a PocketSearch instance.
	Options = pocketsearch.Options
	// Manager coordinates multiple cloudlets on one device.
	Manager = cloudletos.Manager
	// KVCloudlet is the generic cloudlet template (ads, maps, web).
	KVCloudlet = cloudletos.KVCloudlet
	// Quota is a cloudlet storage allowance.
	Quota = cloudletos.Quota
	// Update is a server-built cache update (Section 5.4).
	Update = updater.Update
	// PocketAds is the advertisement cloudlet (Figures 1 and 6).
	PocketAds = adlet.Cache
	// Fleet is the sharded multi-user serving layer.
	Fleet = fleet.Fleet
	// FleetConfig parameterizes a fleet.
	FleetConfig = fleet.Config
	// LoadCollector aggregates fleet responses into latency histograms.
	LoadCollector = loadgen.Collector
	// LoadReport is the machine-readable result of one load phase.
	LoadReport = loadgen.Report
)

// RadioTech selects a radio technology for a simulated phone.
type RadioTech int

const (
	// Radio3G is a 3G (UMTS/HSPA) link.
	Radio3G RadioTech = iota
	// RadioEDGE is an EDGE (2.75G) link.
	RadioEDGE
	// RadioWiFi is an 802.11g link.
	RadioWiFi
)

func (r RadioTech) params() radio.Params {
	switch r {
	case RadioEDGE:
		return radio.EDGE()
	case RadioWiFi:
		return radio.WiFi()
	default:
		return radio.ThreeG()
	}
}

// String implements fmt.Stringer.
func (r RadioTech) String() string { return r.params().Name }

// SimConfig parameterizes a simulated ecosystem.
type SimConfig struct {
	// Seed drives all randomness deterministically.
	Seed int64
	// Users is the community population size. Zero selects the
	// calibrated default (workload.CommunityUsers); small populations
	// over-concentrate the popular head.
	Users int
	// UniverseConfig overrides the corpus dimensions when non-nil.
	UniverseConfig *engine.Config
}

// Simulation bundles the cloud-side state: corpus, engine, and the
// user population that generates search logs.
type Simulation struct {
	Universe  *Universe
	Engine    *Engine
	Generator *Generator
}

// NewSimulation builds a simulated ecosystem.
func NewSimulation(cfg SimConfig) (*Simulation, error) {
	ucfg := engine.DefaultConfig()
	if cfg.UniverseConfig != nil {
		ucfg = *cfg.UniverseConfig
	}
	u, err := engine.NewUniverse(ucfg)
	if err != nil {
		return nil, err
	}
	users := cfg.Users
	if users == 0 {
		users = workload.CommunityUsers
	}
	g, err := workload.New(workload.DefaultConfig(u, users, cfg.Seed))
	if err != nil {
		return nil, err
	}
	return &Simulation{Universe: u, Engine: engine.New(u), Generator: g}, nil
}

// CommunityContent extracts the community cache content from a month's
// logs: the most popular (query, result) pairs covering the given share
// of cumulative volume (the paper evaluates at 0.55).
func (s *Simulation) CommunityContent(month int, share float64) (Content, error) {
	tbl := searchlog.ExtractTriplets(s.Generator.MonthLog(month).Entries)
	n, err := cachegen.SelectByShare(tbl, share)
	if err != nil {
		return Content{}, err
	}
	return cachegen.Generate(tbl, s.Universe, n), nil
}

// CommunityContentFrom is CommunityContent computed from only the first
// `users` profiles' month logs. Materializing a full month log scales
// with the population (a million-user month is tens of millions of
// entries), while the popular head the community cache captures is
// already stable over a much smaller sample — per-user streams are
// seeded by (seed, user, month), so the sampled users' entries are
// identical at any population size. users <= 0, or at least the whole
// population, selects the exact full-log extraction.
func (s *Simulation) CommunityContentFrom(month int, share float64, users int) (Content, error) {
	profiles := s.Generator.Users()
	if users <= 0 || users >= len(profiles) {
		return s.CommunityContent(month, share)
	}
	var entries []searchlog.Entry
	for _, up := range profiles[:users] {
		entries = append(entries, s.Generator.UserStream(up, month)...)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].At < entries[j].At })
	tbl := searchlog.ExtractTriplets(entries)
	n, err := cachegen.SelectByShare(tbl, share)
	if err != nil {
		return Content{}, err
	}
	return cachegen.Generate(tbl, s.Universe, n), nil
}

// NewPhone creates a simulated smartphone with the given radio.
func (s *Simulation) NewPhone(tech RadioTech) *Device {
	return device.New(device.Config{}, tech.params(), flashsim.Params{})
}

// NewPocketSearch builds a PocketSearch cloudlet on a phone, preloaded
// with community content. Provisioning time and energy are discarded
// (it happens overnight while charging).
func (s *Simulation) NewPocketSearch(dev *Device, content Content, opts Options) (*PocketSearch, error) {
	if dev == nil {
		return nil, fmt.Errorf("pocketcloudlets: device is required")
	}
	cache, err := pocketsearch.Build(dev, s.Engine, content, opts)
	if err != nil {
		return nil, err
	}
	dev.Reset()
	return cache, nil
}

// PairStrings materializes the (query, clicked URL) strings of a log
// entry so it can be replayed against a PocketSearch cache.
func (s *Simulation) PairStrings(p searchlog.PairID) (query, url string) {
	return s.Universe.QueryText(s.Universe.QueryOf(p)),
		s.Universe.ResultURL(s.Universe.ResultOf(p))
}

// SyncWithServer runs one Section 5.4 update cycle for a cache: the
// phone's hash table is merged on the server with fresh content and
// the result is applied as patches. It returns the update transferred.
func (s *Simulation) SyncWithServer(cache *PocketSearch, fresh Content) (Update, error) {
	upd, err := updater.BuildUpdate(cache.Table(), fresh, s.Universe, updater.DefaultPolicy())
	if err != nil {
		return Update{}, err
	}
	if _, err := updater.Apply(cache, upd); err != nil {
		return Update{}, err
	}
	return upd, nil
}

// NewFleet builds a sharded serving fleet over this simulation's
// engine, with every shard's community replica preloaded from content.
func (s *Simulation) NewFleet(content Content, cfg FleetConfig) (*Fleet, error) {
	cfg.Engine = s.Engine
	cfg.Content = content
	return fleet.New(cfg)
}

// NewLoadCollector creates an empty load-test collector; install it as
// FleetConfig.Observer before running a load phase.
func NewLoadCollector() *LoadCollector { return loadgen.NewCollector() }

// NewPocketAds builds the advertisement cloudlet on a phone,
// provisioned with creatives for the same popular queries the search
// cache holds.
func (s *Simulation) NewPocketAds(dev *Device, content Content) (*PocketAds, error) {
	if dev == nil {
		return nil, fmt.Errorf("pocketcloudlets: device is required")
	}
	ads, err := adlet.New(dev, adlet.NewInventory(s.Universe))
	if err != nil {
		return nil, err
	}
	ads.Provision(content, s.Universe)
	dev.Reset()
	return ads, nil
}

// NewManager creates a multi-cloudlet manager with the given flash
// budget for all cloudlets together.
func NewManager(totalFlash int64) (*Manager, error) {
	return cloudletos.NewManager(totalFlash)
}

// NewKVCloudlet creates a generic cloudlet on a device's flash store.
func NewKVCloudlet(name string, dev *Device) (*KVCloudlet, error) {
	if dev == nil {
		return nil, fmt.Errorf("pocketcloudlets: device is required")
	}
	return cloudletos.NewKVCloudlet(name, dev.Store())
}
