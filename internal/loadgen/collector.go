package loadgen

import (
	"sync"

	"pocketcloudlets/internal/fleet"
)

// counters is the aggregate a Collector accumulates.
type counters struct {
	wall     Histogram
	model    Histogram
	shed     uint64
	errors   uint64
	canceled uint64
	// bySource is a fixed array indexed by fleet.Source — no map churn
	// on the per-response observation path.
	bySource [fleet.NumSources]uint64
	// Modeled energy sums over observed non-error responses: total,
	// radio-only, and radio-only restricted to cloud misses.
	energyJ    float64
	radioJ     float64
	missRadioJ float64
}

// observe books one response into the aggregate. Caller holds the
// owning stripe's lock.
func (c *counters) observe(r *fleet.Response) {
	if r.Canceled {
		c.canceled++
		return
	}
	if r.Shed {
		c.shed++
		return
	}
	if r.Err != nil {
		c.errors++
		return
	}
	c.wall.Observe(r.Wall)
	c.model.Observe(r.Outcome.ResponseTime())
	c.bySource[r.Source]++
	c.energyJ += r.EnergyJ
	c.radioJ += r.RadioJ
	if r.Source == fleet.SourceCloud {
		c.missRadioJ += r.RadioJ
	}
}

// merge folds another aggregate into this one. Everything is additive
// (histograms merge bucket-wise), so merging stripes in any fixed
// order yields the same counters; only the float energy sums are
// order-sensitive, and stripes are always merged in index order.
func (c *counters) merge(o *counters) {
	c.wall.Merge(&o.wall)
	c.model.Merge(&o.model)
	c.shed += o.shed
	c.errors += o.errors
	c.canceled += o.canceled
	for i := range c.bySource {
		c.bySource[i] += o.bySource[i]
	}
	c.energyJ += o.energyJ
	c.radioJ += o.radioJ
	c.missRadioJ += o.missRadioJ
}

// collectorStripes is the Collector's lock-stripe count. Responses
// stripe by user ID, so one stripe sees all of a user's responses and
// a wide fleet's workers stop serializing on a single observer mutex.
const collectorStripes = 16

// collectorStripe is one independently locked slice of the collector.
// Padded out to its own cache lines would be overkill here: the mutex
// hold times (a histogram bump) dominate any false sharing.
type collectorStripe struct {
	mu      sync.Mutex
	c       counters
	byClass map[string]*counters
}

// Collector aggregates fleet responses into histograms and counters.
// Install it as the fleet's Observer (fleet.Config.Observer) before
// running a load phase. Observe is safe for concurrent use — internally
// lock-striped by user ID so fleet workers do not serialize on one
// mutex. Responses carrying a Request.Class tag are additionally booked
// into a per-class aggregate, which reports surface as per-SLO-class
// breakdowns.
type Collector struct {
	stripes [collectorStripes]collectorStripe
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{}
}

// Observe implements fleet.Observer.
func (c *Collector) Observe(r fleet.Response) {
	s := &c.stripes[uint64(r.Req.User)%collectorStripes]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.c.observe(&r)
	if cls := r.Req.Class; cls != "" {
		cc := s.byClass[cls]
		if cc == nil {
			if s.byClass == nil {
				s.byClass = make(map[string]*counters)
			}
			cc = &counters{}
			s.byClass[cls] = cc
		}
		cc.observe(&r)
	}
}

// Reset clears the collector for a fresh load phase.
func (c *Collector) Reset() {
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		s.c = counters{}
		s.byClass = nil
		s.mu.Unlock()
	}
}

// snapshot merges the stripes into one aggregate.
func (c *Collector) snapshot() counters {
	var out counters
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		out.merge(&s.c)
		s.mu.Unlock()
	}
	return out
}

// classSnapshot merges the per-class aggregates across stripes.
func (c *Collector) classSnapshot() map[string]*counters {
	out := make(map[string]*counters)
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		for k, v := range s.byClass {
			agg := out[k]
			if agg == nil {
				agg = &counters{}
				out[k] = agg
			}
			agg.merge(v)
		}
		s.mu.Unlock()
	}
	return out
}
