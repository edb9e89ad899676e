package fleet

import (
	"testing"
	"time"

	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/faults"
	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/pocketsearch"
	"pocketcloudlets/internal/radio"
)

// stagePlanRow is one hand-built miss plan for TestStagesMatchPlan.
type stagePlanRow struct {
	name string
	// rung is where the miss ends: "cloud" for a plan that gets through;
	// for an exhausted one the degradation rung its query reaches —
	// "personal", "community" or "unavailable".
	rung string
	// fails failed attempts, each followed by its backoff while backoffs
	// last; failedBackend is the backend time the failures' engine errors
	// burned, finalQueue and finalService the successful exchange's
	// admission, hedge the plan's hedge wait.
	fails                    int
	backoffs                 []time.Duration
	failedBackend, hedge     time.Duration
	finalQueue, finalService time.Duration
}

// ladder builds the plan faults.PlanMiss would for row on a link whose
// radio is warm (or not) when the first attempt starts: each failure pays
// the session overhead, waking the radio when it is idle, and leaves it
// promoted; a backoff shorter than the tail keeps it warm.
func (row stagePlanRow) ladder(p radio.Params, warm bool) faults.Plan {
	pl := faults.Plan{Attempts: row.fails, Success: row.rung == "cloud", BackendWait: row.failedBackend}
	if pl.Success {
		pl.Attempts++
		pl.FinalQueueWait, pl.FinalService = row.finalQueue, row.finalService
	}
	for i := 0; i < row.fails; i++ {
		cost := radio.FailedAttemptCost(p, warm)
		pl.FailedWait += cost
		pl.FailedActive += cost
		warm = true
		if i < len(row.backoffs) {
			b := row.backoffs[i]
			pl.Backoffs = append(pl.Backoffs, b)
			pl.FailedWait += b
			warm = b < p.TailDuration
		}
	}
	pl.FinalWarm = warm
	return pl
}

// TestStagesMatchPlan is the stage-vs-plan oracle. It hands
// applyMissLocked hand-built plans — failures with backoffs, a hedge
// wait, backend time on failed and successful attempts, and an exhausted
// ladder on each degradation rung — and holds every response's stages to
// the plan's own terms: backoff is the plan's backoffs, radio-failed the
// rest of its failed wait, hedge its hedge wait, backend its failed and
// final backend time. And the stages sum to what the serving devices'
// clocks advanced, less their flash writes: the user's device, and on the
// community rung the replica's.
func TestStagesMatchPlan(t *testing.T) {
	g := smallGen(t, 16)
	content := smallContent(t, g)
	uid := g.Users()[0].ID
	cloud := missBeyondContent(t, g, len(content.Triplets), uid)
	u := g.Config().Universe
	communityQuery := u.QueryText(u.QueryOf(content.Triplets[0].Pair))

	rows := []stagePlanRow{
		{name: "clean", rung: "cloud"},
		{name: "failures with backoffs", rung: "cloud", fails: 2,
			backoffs: []time.Duration{300 * time.Millisecond, 20 * time.Second}},
		{name: "hedge wait", rung: "cloud", fails: 1, backoffs: []time.Duration{time.Second},
			hedge: 700 * time.Millisecond},
		{name: "backend on failed and final attempts", rung: "cloud", fails: 1, backoffs: []time.Duration{time.Second},
			failedBackend: 90 * time.Millisecond, finalQueue: 40 * time.Millisecond, finalService: 25 * time.Millisecond},
		{name: "exhausted to personal", rung: "personal", fails: 3,
			backoffs: []time.Duration{time.Second, 2 * time.Second}, failedBackend: 50 * time.Millisecond,
			hedge: 400 * time.Millisecond},
		{name: "exhausted to community", rung: "community", fails: 2, backoffs: []time.Duration{time.Second},
			hedge: 250 * time.Millisecond},
		{name: "exhausted to unavailable", rung: "unavailable", fails: 2, backoffs: []time.Duration{time.Second},
			failedBackend: 30 * time.Millisecond},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			f := newTestFleet(t, g, content, func(cfg *Config) {
				cfg.Faults = faults.Options{Enabled: true}
				cfg.Retry = faults.RetryPolicy{MaxAttempts: 3}
			})
			req := cloud
			switch row.rung {
			case "personal":
				// A clean miss first, so the personal component holds the
				// query; the exhausted miss clicks a result it lacks.
				if resp := f.Do(cloud); resp.Source != SourceCloud || resp.Err != nil {
					t.Fatalf("seeding miss = %+v", resp)
				}
				req.Click = "http://stages.test/unknown-click"
			case "community":
				req = Request{User: uid, Query: communityQuery, Click: "http://stages.test/unknown-click"}
			case "unavailable":
				req = Request{User: uid, Query: "stages query nobody ever cached", Click: "http://stages.test/x"}
			}

			sh := f.topo.Load().shards[f.shardOf(uid)]
			sh.mu.Lock()
			defer sh.mu.Unlock()
			st := sh.user(uid)
			if err := sh.materialize(st); err != nil {
				t.Fatal(err)
			}
			dev, replica := st.cache.Device(), sh.community.Device()
			// A plan that gets through waits out its hedge and backend time
			// before the failures replay; an exhausted one after.
			before := row.hedge
			if row.rung == "cloud" {
				before += row.failedBackend + row.finalQueue + row.finalService
			}
			pl := row.ladder(f.cfg.Radio, dev.Link().TailRemaining() > before)
			winner := int32(0)
			if !pl.Success {
				winner = -1
			}
			mc := missCtx{qh: hash64.Sum(req.Query), ch: hash64.Sum(req.Click), hplan: faults.HedgedPlan{
				Primary: faults.HedgeLaunch{Plan: pl}, Wait: row.hedge, Winner: winner,
			}}

			devAt, devStore := dev.Now(), dev.StageTotal(device.Store)
			replicaAt, replicaStore := replica.Now(), replica.StageTotal(device.Store)
			var resp Response
			sh.applyMissLocked(st, &req, &mc, exchange{}, &resp)
			want := SourceDegraded
			switch row.rung {
			case "cloud":
				want = SourceCloud
			case "unavailable":
				want = SourceUnavailable
			}
			if resp.Err != nil || resp.Source != want {
				t.Fatalf("source %v, err %v; want %v", resp.Source, resp.Err, want)
			}

			s := resp.Outcome.Stages
			var backoffs time.Duration
			for _, b := range pl.Backoffs {
				backoffs += b
			}
			for _, c := range []struct {
				stage     device.Stage
				got, want time.Duration
			}{
				{device.Backoff, s[device.Backoff], backoffs},
				{device.RadioFailed, s[device.RadioFailed], pl.FailedWait - backoffs},
				{device.Hedge, s[device.Hedge], mc.hplan.Wait},
				{device.Backend, s[device.Backend], pl.BackendWait + pl.FinalBackend()},
			} {
				if c.got != c.want {
					t.Errorf("%v stage %v, the plan's %v", c.stage, c.got, c.want)
				}
			}
			if (s[device.Radio] > 0) != pl.Success {
				t.Errorf("radio stage %v with a successful exchange %v", s[device.Radio], pl.Success)
			}
			if s[device.Lookup] != pocketsearch.LookupCost || s[device.Render] == 0 || s[device.Misc] == 0 {
				t.Errorf("local stages lookup %v, render %v, misc %v", s[device.Lookup], s[device.Render], s[device.Misc])
			}

			advance := dev.Now() - devAt - (dev.StageTotal(device.Store) - devStore)
			replicaAdvance := replica.Now() - replicaAt - (replica.StageTotal(device.Store) - replicaStore)
			if (replicaAdvance > 0) != (row.rung == "community") {
				t.Errorf("the community replica's device advanced %v", replicaAdvance)
			}
			if got, want := resp.Outcome.ResponseTime(), advance+replicaAdvance; got != want {
				t.Errorf("the stages sum to %v, the serving devices advanced %v less their flash writes (user %v, replica %v)",
					got, want, advance, replicaAdvance)
			}
		})
	}
}
