package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"pocketcloudlets/internal/autoscale"
	"pocketcloudlets/internal/fleet"
)

// counter is one named simulated statistic. Every value is an integer
// (joules in nanojoules, ratios in parts per million) so two digests
// compare exactly.
type counter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// digest is a workload's simulated statistics in a fixed order: the
// model outputs a host-speed change must leave untouched.
type digest []counter

// get returns a counter's value (zero when absent).
func (d digest) get(name string) int64 {
	for _, c := range d {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// diff names the first counter on which two digests disagree, or ""
// when they are equal.
func (d digest) diff(o digest) string {
	for i := 0; i < len(d) && i < len(o); i++ {
		if d[i].Name != o[i].Name {
			return fmt.Sprintf("counter %d is %q, want %q", i, d[i].Name, o[i].Name)
		}
		if d[i].Value != o[i].Value {
			return fmt.Sprintf("%s = %d, want %d", d[i].Name, d[i].Value, o[i].Value)
		}
	}
	if len(d) != len(o) {
		return fmt.Sprintf("%d counters, want %d", len(d), len(o))
	}
	return ""
}

// fleetDigest folds a drained fleet's model state into a digest:
// per-source counts, the retry and hedge machinery, backend replica
// accounting, migrations, the energy ledger in nanojoules (its
// device-base term integrates the modeled response time of every
// request, so a drifted latency model moves it), the model makespan
// and the autoscaler's action log. Breaker opens are left out: they
// pace wall time only and are not a function of the seed.
func fleetDigest(f *fleet.Fleet, actions []autoscale.Action) digest {
	st := f.Stats()
	es := f.EnergyStats()
	mig := f.MigrationStats()
	nj := func(j float64) int64 { return int64(math.Round(j * 1e9)) }
	d := digest{
		{"fleet.served", st.Served},
		{"fleet.shed", st.Shed},
		{"fleet.errors", st.Errors},
		{"fleet.canceled", st.Canceled},
		{"fleet.personal_hits", st.PersonalHits},
		{"fleet.community_hits", st.CommunityHits},
		{"fleet.cloud_misses", st.CloudMisses},
		{"fleet.degraded", st.Degraded},
		{"fleet.unavailable", st.Unavailable},
		{"fleet.resident_users", int64(st.Users)},
		{"fleet.personal_bytes", st.PersonalBytes},
		{"faults.retries", st.Retries},
		{"faults.exhausted", st.Exhausted},
		{"faults.clones_launched", st.ClonesLaunched},
		{"faults.primary_wins", st.PrimaryWins},
		{"faults.clone_wins", st.CloneWins},
		{"faults.wasted_attempts", st.WastedAttempts},
	}
	for r, bs := range st.Backend {
		p := fmt.Sprintf("backend.%d.", r)
		d = append(d,
			counter{p + "arrivals", bs.Arrivals},
			counter{p + "served", bs.Served},
			counter{p + "rejected", bs.Rejected},
			counter{p + "abandoned", bs.Abandoned},
			counter{p + "busy_ns", bs.BusyNs},
			counter{p + "reclaimed_ns", bs.ReclaimedNs},
			counter{p + "wait_sum_ns", bs.WaitSumNs},
			counter{p + "horizon_ns", bs.HorizonNs},
		)
	}
	d = append(d,
		counter{"fleet.resizes", mig.Resizes},
		counter{"fleet.migrated_users", mig.MovedUsers},
		counter{"fleet.migrated_bytes", mig.MovedBytes},
		counter{"energy.device_base_nj", nj(es.DeviceBaseJ)},
		counter{"energy.radio_nj", nj(es.RadioJ)},
		counter{"energy.shard_idle_nj", nj(es.ShardIdleJ)},
		counter{"energy.shard_active_nj", nj(es.ShardActiveJ)},
		counter{"model.makespan_ns", int64(f.ModelMakespan())},
		counter{"autoscale.actions", int64(len(actions))},
	)
	for i, a := range actions {
		p := fmt.Sprintf("autoscale.%d.", i)
		d = append(d,
			counter{p + "at_ns", int64(a.At)},
			counter{p + "from", int64(a.From)},
			counter{p + "to", int64(a.To)},
			counter{p + "occupancy_ppm", int64(math.Round(a.Occupancy * 1e6))},
		)
	}
	return d
}

// goldenFile is the committed form of a digest.
type goldenFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Counters digest `json:"counters"`
}

//go:embed golden/*.json
var goldenFS embed.FS

func goldenName(workload string, seed int64) string {
	return fmt.Sprintf("%s.seed%d.json", workload, seed)
}

// loadGolden returns the committed digest for (workload, seed), or
// ok=false when none is committed for that seed.
func loadGolden(workload string, seed int64) (digest, bool, error) {
	data, err := goldenFS.ReadFile("golden/" + goldenName(workload, seed))
	if err != nil {
		return nil, false, nil
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, false, fmt.Errorf("golden %s: %w", goldenName(workload, seed), err)
	}
	return g.Counters, true, nil
}

// writeGolden regenerates the committed digest under dir/golden, one
// counter per line so a drifted model shows as a one-line diff.
func writeGolden(dir, workload string, seed int64, d digest) error {
	var b strings.Builder
	fmt.Fprintf(&b, "{\n  \"workload\": %q,\n  \"seed\": %d,\n  \"counters\": [\n", workload, seed)
	for i, c := range d {
		sep := ","
		if i == len(d)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "    {\"name\": %q, \"value\": %d}%s\n", c.Name, c.Value, sep)
	}
	b.WriteString("  ]\n}\n")
	path := filepath.Join(dir, "golden", goldenName(workload, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
