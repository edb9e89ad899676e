package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pocketcloudlets/internal/fleet"
	"pocketcloudlets/internal/loadgen"
)

// sampleEvery thins per-request spans: every sampleEvery-th request of
// each user is recorded, from the caller's side and the observer's side
// alike.
const sampleEvery = 16

// span is one traced interval. Start and End are nanoseconds since the
// tracer was created; Parent is the id of the span that caused this one
// (-1 for a root); Req is the request the span belongs to (zero for
// spans around the benchmark's own calls).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    uint64 `json:"request_id,omitempty"`
}

// tracerStripes matches the product collector's striping so the
// wrapping observer adds no coarser lock than the one it wraps.
const tracerStripes = 16

type tracerStripe struct {
	mu sync.Mutex
	// Wall latency sums by outcome: local hits vs everything that went
	// (or tried to go) to the cloud.
	hitNS, missNS int64
	hitN, missN   int64
	model         loadgen.Histogram
	spans         []span
	// due holds, per paced-probe response, completion minus scheduled
	// offset on the tracer clock (the probe's clock origin is recovered
	// afterwards as the minimum).
	due []int64
}

// tracer is the traced pass's fleet.Observer: it forwards every
// response to the product collector, and while switched on also keeps
// per-outcome serve times, the modeled-latency histogram, sampled
// per-request spans and a bounded sample of raw responses. Spans around
// the benchmark's own calls (units, drains, resizes, probes, layer
// replays) are recorded through call.
type tracer struct {
	origin time.Time
	col    *loadgen.Collector
	on     atomic.Bool

	// seq numbers each user's responses in submission order, so the
	// observer derives the same request ids the submitting side does.
	seq     []atomic.Uint32
	stripes [tracerStripes]tracerStripe

	// unitSpan is the call span the current unit's request spans hang
	// under.
	unitSpan int32

	// dueOffsets, when set, are each user's scheduled release offsets in
	// submission order (paced probe only).
	dueOffsets [][]time.Duration

	mu    sync.Mutex
	calls []span
	// requestSpans collects the per-request spans of finished units.
	requestSpans []span
	// recorded is a bounded sample of raw responses for the collector
	// replay.
	recorded []fleet.Response
	// movedUsers totals the users the traced resizes re-homed.
	movedUsers int64
}

const maxRecorded = 1 << 14

// serveSpanNames are the observer-side span names, by source.
var serveSpanNames = func() (names [fleet.NumSources]string) {
	for s := range names {
		names[s] = "fleet.serve." + fleet.Source(s).String()
	}
	return names
}()

func newTracer() *tracer {
	return &tracer{origin: time.Now(), unitSpan: -1}
}

// reset points the tracer at a fresh fleet's collector and restarts
// the per-user sequences; accumulated statistics and spans are kept.
func (t *tracer) reset(col *loadgen.Collector, users int) {
	t.col = col
	t.seq = make([]atomic.Uint32, users)
}

func (t *tracer) rel(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// seedSequences sets every user's next sequence number (the submitting
// side knows how many requests it has already replayed while the
// tracer was off).
func (t *tracer) seedSequences(next func(uid int) uint32) {
	for uid := range t.seq {
		t.seq[uid].Store(next(uid))
	}
}

// Observe implements fleet.Observer.
func (t *tracer) Observe(r fleet.Response) {
	t.col.Observe(r)
	if !t.on.Load() {
		return
	}
	now := t.rel(time.Now())
	uid := int(r.Req.User)
	seq := t.seq[uid].Add(1) - 1
	s := &t.stripes[uid%tracerStripes]
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.Shed || r.Canceled || r.Err != nil {
		return
	}
	local := r.Source == fleet.SourcePersonal || r.Source == fleet.SourceCommunity
	if local {
		s.hitNS += int64(r.Wall)
		s.hitN++
	} else {
		s.missNS += int64(r.Wall)
		s.missN++
	}
	s.model.Observe(r.Outcome.ResponseTime())
	if t.dueOffsets != nil {
		if offs := t.dueOffsets[uid]; int(seq) < len(offs) {
			s.due = append(s.due, now-int64(offs[seq]))
		}
		return
	}
	if seq%sampleEvery == 0 {
		s.spans = append(s.spans, span{
			Name: serveSpanNames[r.Source], Start: now - int64(r.Wall), End: now,
			Parent: t.unitSpan, Req: requestID(r.Req.User, seq),
		})
	}
	if uid%tracerStripes == 0 && len(t.recorded) < maxRecorded {
		// Stripe 0's lock serializes this append.
		t.recorded = append(t.recorded, r)
	}
}

// call records a span around one of the benchmark's own calls and
// returns its id for children to name as parent.
func (t *tracer) call(name string, parent int32, fn func()) int32 {
	t.mu.Lock()
	id := int32(len(t.calls))
	t.calls = append(t.calls, span{Name: name, Parent: parent})
	t.mu.Unlock()
	start := time.Now()
	fn()
	end := time.Now()
	t.mu.Lock()
	t.calls[id].Start, t.calls[id].End = t.rel(start), t.rel(end)
	t.mu.Unlock()
	return id
}

// open starts a call span that stays open until the returned func is
// called; request spans recorded meanwhile hang under it.
func (t *tracer) open(name string) (id int32, done func()) {
	t.mu.Lock()
	id = int32(len(t.calls))
	t.calls = append(t.calls, span{Name: name, Parent: -1, Start: t.rel(time.Now())})
	t.mu.Unlock()
	return id, func() {
		t.mu.Lock()
		t.calls[id].End = t.rel(time.Now())
		t.mu.Unlock()
	}
}

func (t *tracer) addRequestSpans(s []span) {
	t.mu.Lock()
	t.requestSpans = append(t.requestSpans, s...)
	t.mu.Unlock()
}

// callTotals sums the durations and counts the calls of every call
// span with the given name.
func (t *tracer) callTotals(name string) (total time.Duration, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.calls {
		if c.Name == name {
			total += time.Duration(c.End - c.Start)
			n++
		}
	}
	return total, n
}

// spanDurations returns the lengths, in nanoseconds, of the finished
// per-request spans with the given name.
func (t *tracer) spanDurations(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	for _, s := range t.requestSpans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// serveMeans returns the mean wall serve time of local hits and of
// cloud-path responses.
func (t *tracer) serveMeans() (hit, miss time.Duration) {
	var hitNS, missNS, hitN, missN int64
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		hitNS, missNS, hitN, missN = hitNS+s.hitNS, missNS+s.missNS, hitN+s.hitN, missN+s.missN
		s.mu.Unlock()
	}
	if hitN > 0 {
		hit = time.Duration(hitNS / hitN)
	}
	if missN > 0 {
		miss = time.Duration(missNS / missN)
	}
	return hit, miss
}

// modelLatency merges the stripes' modeled-latency histograms.
func (t *tracer) modelLatency() *loadgen.Histogram {
	var h loadgen.Histogram
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		h.Merge(&s.model)
		s.mu.Unlock()
	}
	return &h
}

// takeDue returns and clears the paced probe's due samples.
func (t *tracer) takeDue() []int64 {
	var out []int64
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		out = append(out, s.due...)
		s.due = nil
		s.mu.Unlock()
	}
	return out
}

// writeSpans writes every span as JSON: the benchmark's call spans
// first (a call span's id is its index), then the per-request spans.
func (t *tracer) writeSpans(path string) error {
	all := append([]span(nil), t.calls...)
	all = append(all, t.requestSpans...)
	for i := range t.stripes {
		all = append(all, t.stripes[i].spans...)
	}
	data, err := json.Marshal(struct {
		SampleEvery int    `json:"sample_every"`
		Spans       []span `json:"spans"`
	}{sampleEvery, all})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
