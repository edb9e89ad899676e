// Package backend models the cloud side of the miss path as a small
// cluster of replica servers with finite capacity — queues, not
// oracles. Each replica is an event-driven simulation of a single
// server fed by a seeded background arrival process representing the
// fleet's aggregate miss load: bounded FIFO or processor-sharing
// service, configurable service-time distributions, and per-replica
// utilization and queue-wait accounting. This is what makes the
// request-cloning congestion knee observable (PAPERS.md, the request
// cloning reproducibility report): cloning multiplies the offered load,
// and past the utilization knee the queues — not the radio — set the
// tail.
//
// # Determinism contract
//
// The fleet plans misses concurrently from many worker goroutines, and
// users' model clocks advance at different rates, so backend queries
// arrive in no particular order — yet fleet outcomes must stay
// byte-reproducible under -race. The subsystem therefore never lets a
// foreground request mutate the simulated queue it observes:
//
//   - Each replica's queue evolves under a deterministic *background*
//     process — seeded Poisson arrivals at the configured offered rate
//     (scaled by the clone factor, since every clone is one more
//     arrival somewhere), with service demands drawn from the
//     configured distribution. The queue state at model time t is a
//     pure function of (seed, replica, t).
//   - A priced dispatch is a *transparent observer*: Price simulates
//     the state at its arrival instant (checkpointed, so out-of-order
//     queries are cheap), reads its wait/rejection, and draws its own
//     service time from a pure hash of (seed, replica, uid, qh, seq,
//     attempt). Nothing it does perturbs what any other query sees.
//   - Accounting (arrivals, served, rejected, abandoned, busy time,
//     wait histograms) accumulates through commutative atomic adds of
//     deterministic per-plan values, so totals are exact and
//     order-independent.
//
// With the model disabled — or with an infinite service rate — every
// priced quantity is exactly zero and every dispatch is admitted, so
// plans, outcomes and reports are byte-identical to the pre-backend
// fleet. That identity is the refactor's safety rail (DESIGN.md,
// "Queued backends") and a row of cmd/loadtest's TestSmokes.
package backend

import (
	"fmt"
	"math"
	"time"

	"pocketcloudlets/internal/faults"
	"pocketcloudlets/internal/hash64"
)

// Discipline selects how a replica's server shares itself among queued
// requests.
type Discipline uint8

const (
	// FIFO: one request in service at a time, the rest wait in arrival
	// order. The queue bound caps the backlog at QueueDepth mean
	// service times of unfinished work.
	FIFO Discipline = iota
	// PS: processor sharing — every admitted request progresses at rate
	// 1/n. The queue bound caps the multiprogramming level at
	// QueueDepth concurrent requests.
	PS
)

// String implements fmt.Stringer.
func (d Discipline) String() string {
	switch d {
	case FIFO:
		return "fifo"
	case PS:
		return "ps"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// ParseDiscipline parses the cmd/loadtest / scenario spelling.
func ParseDiscipline(s string) (Discipline, error) {
	switch s {
	case "", "fifo":
		return FIFO, nil
	case "ps":
		return PS, nil
	default:
		return 0, fmt.Errorf("backend: unknown discipline %q (want fifo or ps)", s)
	}
}

// Dist selects the service-time distribution.
type Dist uint8

const (
	// DistExp: exponential service times with mean 1/ServiceRate (the
	// M/M/1-family baseline of the PS-model literature).
	DistExp Dist = iota
	// DistFixed: deterministic service times of exactly 1/ServiceRate.
	DistFixed
)

// String implements fmt.Stringer.
func (d Dist) String() string {
	switch d {
	case DistExp:
		return "exp"
	case DistFixed:
		return "fixed"
	default:
		return fmt.Sprintf("Dist(%d)", int(d))
	}
}

// ParseDist parses the cmd/loadtest / scenario spelling.
func ParseDist(s string) (Dist, error) {
	switch s {
	case "", "exp":
		return DistExp, nil
	case "fixed":
		return DistFixed, nil
	default:
		return 0, fmt.Errorf("backend: unknown service distribution %q (want exp or fixed)", s)
	}
}

// Options configure the modeled cloud backend. The zero value disables
// it entirely.
type Options struct {
	// Enabled turns the queued-backend model on. Off, the miss path is
	// byte-identical to the pre-backend fleet.
	Enabled bool
	// Seed drives the background arrival process and the per-request
	// service draws. Independent of the workload and fault seeds.
	Seed int64
	// Replicas is the number of modeled replica servers; the fleet sets
	// it from its own replica count. Minimum 1.
	Replicas int
	// ServiceRate is each replica's service capacity in requests per
	// second (the mean service time is its inverse). math.Inf(1) models
	// an infinitely fast server: every priced quantity is exactly zero,
	// which must reproduce the pre-backend fleet byte-for-byte. Zero or
	// negative disables the model.
	ServiceRate float64
	// QueueDepth bounds each replica's queue; zero means unbounded.
	// FIFO: the backlog may not exceed QueueDepth mean service times of
	// unfinished work. PS: at most QueueDepth requests share the server.
	// A dispatch over the bound is rejected — an immediate retryable
	// failure.
	QueueDepth int
	// Discipline selects FIFO or processor sharing.
	Discipline Discipline
	// Dist selects the service-time distribution.
	Dist Dist
	// Offered is the fleet-wide miss arrival rate in requests per
	// second *before* cloning — the intensity of the background load
	// each replica's queue simmers under. The per-replica background
	// rate is Offered × CloneFactor / Replicas. Zero means no
	// background load: requests still pay their service time but never
	// queue.
	Offered float64
	// CloneFactor scales the background load for request cloning (every
	// hedged miss is up to CloneFactor arrivals somewhere); the fleet
	// sets it from its hedge policy. Minimum 1.
	CloneFactor int
	// CancelOnWin reclaims a hedge loser's unexecuted work when the
	// winner's answer cancels it: only the executed slice is charged to
	// the replica's busy time, and the remainder is booked as
	// reclaimed. Off, abandoned requests burn their full service time
	// (fire-and-forget clones).
	CancelOnWin bool
}

// Active reports whether the model actually prices anything.
func (o Options) Active() bool { return o.Enabled && o.ServiceRate > 0 }

func (o Options) withDefaults() Options {
	if o.Replicas < 1 {
		o.Replicas = 1
	}
	if o.CloneFactor < 1 {
		o.CloneFactor = 1
	}
	return o
}

// rng is a splitmix64 stream — cheap, seedable, and checkpointable by
// copying one word, which is what lets the timeline resume from any
// checkpoint.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return hash64.Mix(r.s)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// exp returns a unit-mean exponential draw (strictly positive).
func (r *rng) exp() float64 { return expDraw(r.float()) }

// skip advances the stream past n draws.
func (r *rng) skip(n uint64) { r.s += n * 0x9E3779B97F4A7C15 }

// Model is the replicated backend. Safe for concurrent use: pricing is
// pure per the package contract, accounting is atomic.
type Model struct {
	opts Options
	// mean is the mean service time in seconds (0 for an infinite
	// rate); lambda the per-replica background arrival rate; bound the
	// FIFO backlog bound in seconds (0 = unbounded).
	mean   float64
	lambda float64
	bound  float64
	reps   []*replica
}

// NewModel builds the model, or returns nil when the options are
// inactive — a nil *Model is a valid "no backend" and prices nothing.
func NewModel(o Options) *Model {
	o = o.withDefaults()
	if !o.Active() {
		return nil
	}
	m := &Model{opts: o}
	if !math.IsInf(o.ServiceRate, 1) {
		m.mean = 1 / o.ServiceRate
	}
	if o.Offered > 0 {
		m.lambda = o.Offered * float64(o.CloneFactor) / float64(o.Replicas)
	}
	if o.QueueDepth > 0 {
		m.bound = float64(o.QueueDepth) * m.mean
	}
	m.reps = make([]*replica, o.Replicas)
	for r := range m.reps {
		m.reps[r] = newReplica(m, r)
	}
	return m
}

// drawService is the pure per-request service draw: the same
// identifiers always cost the same service time, on any replica query
// order.
func (m *Model) drawService(replica int, uid, qh, seq uint64, attempt int) float64 {
	if m.mean == 0 || m.opts.Dist == DistFixed {
		return m.mean
	}
	x := hash64.Mix(uint64(m.opts.Seed) ^ 0x5EBAC4E17E57D15E)
	x = hash64.Mix(x ^ uint64(replica)*0xA24BAED4963EE407)
	x = hash64.Mix(x ^ uid*0x9E3779B97F4A7C15)
	x = hash64.Mix(x ^ qh)
	x = hash64.Mix(x ^ seq*0xD1B54A32D192ED03)
	x = hash64.Mix(x ^ uint64(attempt))
	u := float64(x>>11) / float64(1<<53)
	return expDraw(u) * m.mean
}

// Price implements faults.Pricer: the queueing experience a dispatch
// arriving at replica at model time at would have. Pure with respect
// to model state — concurrent and out-of-order calls always agree. The
// replica's lock is held only to pick and unpack a saved state and to
// publish what the replay saved; the replay runs under no lock, so calls
// on one replica replay side by side.
func (m *Model) Price(replica int, at time.Duration, uid, qh, seq uint64, attempt int) faults.Admission {
	if m == nil {
		return faults.Admission{}
	}
	if m.mean == 0 {
		// Infinitely fast server: every background demand is zero too, so
		// the queue can never hold work. Skip the timeline entirely — this
		// keeps the byte-identity configuration O(1) per dispatch.
		return faults.Admission{}
	}
	if replica < 0 || replica >= len(m.reps) {
		replica = 0
	}
	rp := m.reps[replica]
	t := float64(at) / 1e9
	if t < 0 {
		t = 0
	}
	svc := m.drawService(replica, uid, qh, seq, attempt)

	rc := rp.stateAt(t)
	defer rp.publish(rc)
	st := &rc.st
	switch m.opts.Discipline {
	case PS:
		if m.opts.QueueDepth > 0 && len(st.jobs) >= m.opts.QueueDepth {
			return faults.Admission{Rejected: true}
		}
		done := rp.tagged(rc, t, svc)
		wait := done - t - svc
		if wait < 0 {
			wait = 0
		}
		return faults.Admission{Wait: seconds(wait), Service: seconds(svc)}
	default: // FIFO
		if m.bound > 0 && st.work >= m.bound {
			return faults.Admission{Rejected: true}
		}
		return faults.Admission{Wait: seconds(st.work), Service: seconds(svc)}
	}
}

// seconds converts a float second count to a model duration, saturating
// instead of overflowing.
func seconds(s float64) time.Duration {
	if s <= 0 {
		return 0
	}
	ns := s * 1e9
	if ns >= float64(math.MaxInt64) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(ns)
}
