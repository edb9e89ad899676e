package fleet

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"pocketcloudlets/internal/backend"
	"pocketcloudlets/internal/faults"
	"pocketcloudlets/internal/searchlog"
)

// missPathCell is one setting of everything that parameterizes the miss
// path (DESIGN.md, "The miss path"): the plan's three sources — fault
// injection, replicas/hedging, the queued backend — and the exchange.
type missPathCell struct {
	faults  string // "off", "inert" (enabled, no failure source), "lossy", "outage" (loss plus a periodic outage: clock-dependent)
	hedge   string // "single" (1 replica), "clone1" (3 replicas, clone factor 1), "hedged" (3 replicas, clone factor 2)
	backend string // "off", "inf" (infinite rate), "ps" (finite-rate processor sharing)
	batch   bool
	// defaults leaves the retry policy at the fleet's default instead
	// of the three-attempt ladder every other cell runs under.
	defaults bool
}

func (c missPathCell) String() string {
	return fmt.Sprintf("faults=%s/%s/backend=%s/batch=%v/defaults=%v", c.faults, c.hedge, c.backend, c.batch, c.defaults)
}

// replicas is how many modeled cloud replicas the cell's fleet has.
func (c missPathCell) replicas() int {
	if c.hedge == "single" {
		return 1
	}
	return 3
}

// configure applies the cell to a fleet config. Except for "outage",
// every fault and pricing source is clock-free — loss and engine errors
// are pure hash rolls, and the PS backend carries no background load,
// so a dispatch pays its hashed service time but never a queue wait
// that depends on when it arrived — because batching legitimately
// shifts model clocks (a shared session's wait is not a solo
// exchange's), and only clock-free plans are comparable across the two
// exchanges; an outage is read off the user's model clock, so "outage"
// cells exist unbatched only.
func (c missPathCell) configure(cfg *Config) {
	cfg.QueueDepth = 4096
	if !c.defaults {
		cfg.Retry = faults.RetryPolicy{MaxAttempts: 3}
	}
	switch c.faults {
	case "inert":
		cfg.Faults = faults.Options{Enabled: true}
	case "lossy":
		cfg.Faults = faults.Options{Enabled: true, Seed: 9, LossProb: 0.4, EngineErrProb: 0.2}
	case "outage":
		cfg.Faults = hedgeBiteFaults(5)
	}
	switch c.hedge {
	case "clone1":
		cfg.Replicas = 3
		cfg.Hedge = faults.HedgePolicy{CloneFactor: 1, Delay: 200 * time.Millisecond}
	case "hedged":
		cfg.Replicas = 3
		cfg.Hedge = faults.HedgePolicy{CloneFactor: 2, Delay: 200 * time.Millisecond}
	}
	switch c.backend {
	case "inf":
		cfg.Backend = backend.Options{Enabled: true, Seed: 11, ServiceRate: math.Inf(1), Offered: 50, QueueDepth: 4}
	case "ps":
		cfg.Backend = backend.Options{Enabled: true, Seed: 11, ServiceRate: 4, Discipline: backend.PS, CancelOnWin: true}
	}
	if c.batch {
		cfg.Batch = BatchOptions{Enabled: true, Linger: time.Millisecond}
	}
}

// missPathRun is what one cell produced.
type missPathRun struct {
	resps    map[searchlog.UserID][]Response
	stats    Stats
	makespan time.Duration
}

// sameModel reports how run b differs from run a, ignoring the named
// presentation differences; "" means identical. Full responses are only
// comparable between unbatched runs — a batched member's network term
// and radio joules depend on who shared its session — so batched runs
// compare their fault traces instead. With attempts set, the Attempts
// field is ignored too (an inert injector books the single successful
// attempt a disabled one does not). The same goes for the backend's
// horizon — the latest model instant a dispatch touched, a clock
// reading, and batch composition shifts clocks run to run — for the
// session counters a batched run books (withoutSessions), and for the
// fleet's model makespan, which only unbatched runs must agree on.
func sameModel(a, b missPathRun, fullResponses, attempts bool, normalize func(*Stats)) string {
	as, bs := a.stats, b.stats
	for _, s := range []*Stats{&as, &bs} {
		s.Backend = append([]backend.ReplicaStats(nil), s.Backend...)
		for i := range s.Backend {
			if !fullResponses {
				s.Backend[i].HorizonNs = 0
			}
		}
		if !fullResponses {
			*s = withoutSessions(*s)
		}
		normalize(s)
	}
	if !reflect.DeepEqual(as, bs) {
		return fmt.Sprintf("fleet counters diverge:\n  %+v\n  %+v", as, bs)
	}
	strip := func(resps map[searchlog.UserID][]Response) map[searchlog.UserID][]Response {
		out := make(map[searchlog.UserID][]Response, len(resps))
		for uid, rs := range resps {
			rs = append([]Response(nil), rs...)
			for i := range rs {
				rs[i].Attempts = 0
			}
			out[uid] = rs
		}
		return out
	}
	ar, br := a.resps, b.resps
	if attempts {
		ar, br = strip(ar), strip(br)
	}
	if fullResponses {
		if !reflect.DeepEqual(ar, br) {
			return "per-user responses diverge"
		}
		if a.makespan != b.makespan {
			return fmt.Sprintf("model makespan diverges: %v vs %v", a.makespan, b.makespan)
		}
		return ""
	}
	if !reflect.DeepEqual(faultTraces(ar), faultTraces(br)) {
		return "per-user traces diverge"
	}
	return ""
}

// TestMissPathTable holds the one miss path against every combination
// of its parameters (run under -race by scripts/check.sh). Each cell
// runs twice — every request served by its blocking caller (Do with
// nothing queued ahead), and every request through a worker queue
// (Submit, observer, Drain) — and the two sides of that selection must
// agree: response for response when unbatched, trace for trace when
// batched. Within each row the two exchanges agree: batched and
// unbatched runs produce identical per-user hit/source/attempt traces
// and identical fleet counters. Across rows the degenerate settings are
// the plain miss: an inert injector equals a disabled one (under the
// three-attempt ladder and under the default retry policy), an
// infinitely fast backend equals none while still counting every
// arrival at a price of zero, and three replicas at clone factor 1
// equal the single backend with every hedge counter at zero — response
// for response (energy and model makespan included) when unbatched.
func TestMissPathTable(t *testing.T) {
	g := smallGen(t, 16)
	content := smallContent(t, g)
	users := g.Users()[:12]

	var cells []missPathCell
	for _, fl := range []string{"off", "inert", "lossy", "outage"} {
		for _, hg := range []string{"single", "clone1", "hedged"} {
			for _, bk := range []string{"off", "inf", "ps"} {
				if fl == "off" && bk != "off" {
					// The backend's admission planner needs an injector to
					// ride (TestBackendRequiresFaults).
					continue
				}
				for _, batch := range []bool{false, true} {
					if fl == "outage" && batch {
						continue
					}
					cells = append(cells, missPathCell{faults: fl, hedge: hg, backend: bk, batch: batch})
				}
			}
		}
	}
	for _, fl := range []string{"off", "inert"} {
		for _, batch := range []bool{false, true} {
			cells = append(cells, missPathCell{faults: fl, hedge: "single", backend: "off", batch: batch, defaults: true})
		}
	}
	runs := make(map[missPathCell]missPathRun, len(cells))
	queued := make(map[missPathCell]missPathRun, len(cells))
	finish := func(f *Fleet, resps map[searchlog.UserID][]Response) missPathRun {
		defer f.Close()
		return missPathRun{resps: resps, stats: f.Stats(), makespan: f.ModelMakespan()}
	}
	for _, c := range cells {
		f := newTestFleet(t, g, content, c.configure)
		runs[c] = finish(f, runResponses(t, f, g, users))

		rec := &recorder{}
		f = newTestFleet(t, g, content, func(cfg *Config) {
			c.configure(cfg)
			cfg.Observer = rec
		})
		queued[c] = finish(f, runQueued(t, f, rec, g, users))
	}
	if t.Failed() {
		return
	}

	nothing := func(*Stats) {}
	for _, c := range cells {
		if diff := sameModel(runs[c], queued[c], !c.batch, false, nothing); diff != "" {
			t.Errorf("%v: caller-run ≢ queued: %s", c, diff)
		}
		r := runs[c]
		// The cell must exercise what it names, or it proves nothing.
		s := r.stats
		if c.batch != (s.Batches > 0) {
			t.Errorf("%v: %d batched sessions", c, s.Batches)
		}
		if (c.faults == "lossy" || c.faults == "outage") && (s.Retries == 0 || s.Exhausted == 0) {
			t.Errorf("%v: loss did not bite: %+v", c, s)
		}
		if s.Replicas != c.replicas() {
			t.Errorf("%v: fleet reports %d replicas", c, s.Replicas)
		}
		hedging := c.hedge == "hedged" && c.faults != "off"
		if hedging != (s.ClonesLaunched > 0) || hedging != (s.PrimaryWins+s.CloneWins > 0) || (!hedging && s.WastedAttempts != 0) {
			t.Errorf("%v: hedge counters %d launched, %d+%d wins, %d wasted", c, s.ClonesLaunched, s.PrimaryWins, s.CloneWins, s.WastedAttempts)
		}
		if c.backend == "ps" && s.Backend[0].BusyNs == 0 {
			t.Errorf("%v: finite-rate backend charged no service time", c)
		}
		if c.backend == "inf" {
			// Infinite rate still counts arrivals; it prices them at zero.
			var arrivals int64
			for _, bs := range s.Backend {
				arrivals += bs.Arrivals
				if bs.Rejected != 0 || bs.BusyNs != 0 || bs.WaitSumNs != 0 {
					t.Errorf("%v: infinite-rate backend priced nonzero: %+v", c, bs)
				}
			}
			if len(s.Backend) != c.replicas() || arrivals == 0 {
				t.Errorf("%v: infinite-rate backend has %d replica rows, %d arrivals", c, len(s.Backend), arrivals)
			}
		}

		if !c.batch && c.faults != "outage" {
			twin := c
			twin.batch = true
			if diff := sameModel(r, runs[twin], false, false, nothing); diff != "" {
				t.Errorf("%v: batched ≢ unbatched: %s", c, diff)
			}
		}
		if c.faults == "inert" && c.backend == "off" && c.hedge != "hedged" {
			// (A hedged inert miss still launches a clone whose exchange
			// is abandoned — honest waste the plain miss does not pay.)
			twin := c
			twin.faults = "off"
			if diff := sameModel(runs[twin], r, !c.batch, true, nothing); diff != "" {
				t.Errorf("%v: inert ≢ faults off: %s", c, diff)
			}
		}
		if c.backend == "inf" {
			twin := c
			twin.backend = "off"
			if diff := sameModel(runs[twin], r, !c.batch, false, func(s *Stats) { s.Backend = nil }); diff != "" {
				t.Errorf("%v: infinite rate ≢ backend off: %s", c, diff)
			}
		}
		if c.hedge == "clone1" {
			twin := c
			twin.hedge = "single"
			presentation := func(s *Stats) {
				s.Replicas = 0
				if len(s.Backend) > 1 {
					s.Backend = s.Backend[:1] // clone factor 1 dispatches to replica 0 only
				}
			}
			if diff := sameModel(runs[twin], r, !c.batch, false, presentation); diff != "" {
				t.Errorf("%v: clone factor 1 ≢ single backend: %s", c, diff)
			}
		}
	}
}

// TestMixedCohortMissPath runs the plan as a per-user value: in one
// faulted, replicated fleet, a cohort with Faults: &faults.Options{} —
// no injector — sits next to a cohort that hedges through the lossy
// fleet-wide injector. The injector-free users must be served exactly
// as the same users in a fleet with no fault layer at all — response
// for response, Attempts 0 throughout (the Response.Attempts contract
// is per user, not per fleet) — while their neighbours retry and hedge.
func TestMixedCohortMissPath(t *testing.T) {
	g := smallGen(t, 16)
	content := smallContent(t, g)
	users := g.Users()[:12]
	clean := func(uid searchlog.UserID) bool { return uid%2 == 0 }

	for _, batch := range []bool{false, true} {
		t.Run(fmt.Sprintf("batch=%v", batch), func(t *testing.T) {
			plainCell := missPathCell{faults: "off", hedge: "single", backend: "off", batch: batch}
			plain := runResponses(t, newTestFleet(t, g, content, plainCell.configure), g, users)

			mixedCell := missPathCell{faults: "lossy", hedge: "clone1", backend: "off", batch: batch}
			f := newTestFleet(t, g, content, func(cfg *Config) {
				mixedCell.configure(cfg)
				cfg.Cohorts = []Cohort{
					{Name: "clean", Faults: &faults.Options{}},
					{Name: "hedging", Hedge: &faults.HedgePolicy{CloneFactor: 2, Delay: 200 * time.Millisecond}},
				}
				cfg.CohortOf = func(uid searchlog.UserID) int {
					if clean(uid) {
						return 0
					}
					return 1
				}
			})
			for _, up := range users {
				if f.Hedges(up.ID) == clean(up.ID) {
					t.Errorf("user %d: Hedges = %v", up.ID, f.Hedges(up.ID))
				}
			}
			mixed := runResponses(t, f, g, users)
			if t.Failed() {
				return
			}

			var retried bool
			for uid, rs := range mixed {
				if !clean(uid) {
					for _, r := range rs {
						retried = retried || r.Attempts > 1
						if local := r.Source == SourcePersonal || r.Source == SourceCommunity; local != (r.Attempts == 0) {
							t.Fatalf("hedging user %d: %v serve with %d attempts", uid, r.Source, r.Attempts)
						}
					}
					continue
				}
				for i, r := range rs {
					if r.Attempts != 0 {
						t.Fatalf("injector-free user %d request %d booked %d attempts", uid, i, r.Attempts)
					}
				}
				// Unbatched, the whole response must match; a batched
				// member's network and energy depend on its session.
				if !batch && !reflect.DeepEqual(rs, plain[uid]) {
					t.Errorf("injector-free user %d is served differently beside a faulted cohort", uid)
				}
			}
			want := faultTraces(plain)
			for uid, tr := range faultTraces(mixed) {
				if clean(uid) && !reflect.DeepEqual(tr, want[uid]) {
					t.Errorf("injector-free user %d trace diverges from the unfaulted fleet", uid)
				}
			}
			s := f.Stats()
			if !retried || s.Retries == 0 || s.ClonesLaunched == 0 || s.PrimaryWins+s.CloneWins == 0 {
				t.Errorf("the hedging cohort did not bite: %+v", s)
			}
		})
	}
}
