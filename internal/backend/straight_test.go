package backend

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"pocketcloudlets/internal/faults"
	"pocketcloudlets/internal/hash64"
)

// straightQueue is one replica's queue replayed straight from genesis:
// one state walked forward event by event, its draws taken one at a
// time with math.Log1p. It keeps no checkpoint, no cache and nothing
// drawn ahead, so it is the plainest reading of the model Price
// answers from saved states.
type straightQueue struct {
	o                   Options
	mean, lambda, bound float64

	t, work, off       float64
	marks              []float64 // PS service-demand marks, ascending
	nextAt, nextDemand float64
	s                  uint64 // splitmix64 state of the background stream
}

func newStraightQueue(o Options, replica int) *straightQueue {
	o = o.withDefaults()
	q := &straightQueue{o: o, mean: 1 / o.ServiceRate, nextAt: math.Inf(1)}
	q.lambda = o.Offered * float64(o.CloneFactor) / float64(o.Replicas)
	q.bound = float64(o.QueueDepth) * q.mean
	q.s = hash64.Mix(uint64(o.Seed)^0xB0E57A7E_5EED_0001) ^ uint64(replica)*0x9FB21C651E98DF25
	if q.lambda > 0 {
		q.nextAt = q.exp() / q.lambda
		q.nextDemand = q.demand()
	}
	return q
}

func (q *straightQueue) exp() float64 {
	q.s += 0x9E3779B97F4A7C15
	return -math.Log1p(-float64(hash64.Mix(q.s)>>11) / (1 << 53))
}

// demand draws one background demand: one draw whatever the distribution.
func (q *straightQueue) demand() float64 {
	e := q.exp()
	if q.o.Dist == DistFixed {
		return q.mean
	}
	return e * q.mean
}

func (q *straightQueue) arrive() {
	q.nextAt += q.exp() / q.lambda
	q.nextDemand = q.demand()
}

// drain lets the PS server run to instant to with the current jobs.
func (q *straightQueue) drain(to float64) {
	if n := len(q.marks); n > 0 {
		q.off += (to - q.t) / float64(n)
	}
	q.t = to
	for len(q.marks) > 0 && q.marks[0] <= q.off+completionEps {
		q.marks = q.marks[1:]
	}
}

func (q *straightQueue) admit(demand float64) {
	mark := demand + q.off
	q.marks = slices.Insert(q.marks, sort.SearchFloat64s(q.marks, mark), mark)
}

// to applies every background event at or before t.
func (q *straightQueue) to(t float64) {
	if q.o.Discipline == FIFO {
		for q.nextAt <= t {
			q.work = max(q.work-(q.nextAt-q.t), 0)
			q.t = q.nextAt
			if q.bound <= 0 || q.work < q.bound {
				q.work += q.nextDemand
			}
			q.arrive()
		}
		return
	}
	for {
		nc := math.Inf(1)
		if n := len(q.marks); n > 0 {
			nc = q.t + (q.marks[0]-q.off)*float64(n)
		}
		switch {
		case nc <= q.nextAt && nc <= t:
			q.drain(nc)
		case q.nextAt <= t:
			q.drain(q.nextAt)
			if q.o.QueueDepth <= 0 || len(q.marks) < q.o.QueueDepth {
				q.admit(q.nextDemand)
			}
			q.arrive()
		default:
			return
		}
	}
}

// copyAt returns a copy of q drained to t, which must not precede the
// next event.
func (q *straightQueue) copyAt(t float64) *straightQueue {
	c := *q
	c.marks = slices.Clone(q.marks)
	if c.o.Discipline == FIFO {
		c.work = max(c.work-(t-c.t), 0)
		c.t = t
	} else {
		c.drain(t)
	}
	return &c
}

// done walks a foreground job of demand svc, arriving into c at c.t,
// to its completion, as one more PS job: it slows the background and
// holds a slot against its admission.
func (c *straightQueue) done(svc float64) float64 {
	if svc <= completionEps {
		return c.t
	}
	for arrivals := 0; ; {
		n := float64(len(c.marks) + 1)
		nc := math.Inf(1)
		if len(c.marks) > 0 {
			nc = c.t + (c.marks[0]-c.off)*n
		}
		tc := c.t + svc*n
		completion := nc <= tc && nc <= c.nextAt
		if !completion && tc <= c.nextAt {
			return tc
		}
		to := nc
		if !completion {
			to = c.nextAt
		}
		c.off += (to - c.t) / n
		svc -= (to - c.t) / n
		c.t = to
		for len(c.marks) > 0 && c.marks[0] <= c.off+completionEps {
			c.marks = c.marks[1:]
		}
		if !completion {
			if c.o.QueueDepth <= 0 || len(c.marks)+1 < c.o.QueueDepth {
				c.admit(c.nextDemand)
			}
			c.arrive()
			if arrivals++; arrivals >= taggedMaxArrivals {
				return c.t
			}
		}
		if svc <= completionEps {
			return c.t
		}
	}
}

// service is a dispatch's own service time, from the hash of its
// identifiers.
func (q *straightQueue) service(replica int, uid, qh, seq uint64, attempt int) float64 {
	if q.o.Dist == DistFixed {
		return q.mean
	}
	x := hash64.Mix(uint64(q.o.Seed) ^ 0x5EBAC4E17E57D15E)
	x = hash64.Mix(x ^ uint64(replica)*0xA24BAED4963EE407)
	x = hash64.Mix(x ^ uid*0x9E3779B97F4A7C15)
	x = hash64.Mix(x ^ qh)
	x = hash64.Mix(x ^ seq*0xD1B54A32D192ED03)
	x = hash64.Mix(x ^ uint64(attempt))
	return -math.Log1p(-float64(x>>11)/(1<<53)) * q.mean
}

// straightPrices answers qs, all on one replica, by one straight replay
// in ascending instants.
func straightPrices(o Options, replica int, qs []query) []faults.Admission {
	order := make([]int, len(qs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return qs[order[a]].at < qs[order[b]].at })
	q := newStraightQueue(o, replica)
	out := make([]faults.Admission, len(qs))
	for _, i := range order {
		qr := qs[i]
		t := float64(qr.at) / 1e9
		q.to(t)
		c := q.copyAt(t)
		svc := q.service(replica, qr.uid, qr.qh, qr.seq, qr.attempt)
		switch {
		case o.Discipline == FIFO && q.bound > 0 && c.work >= q.bound,
			o.Discipline == PS && o.QueueDepth > 0 && len(c.marks) >= o.QueueDepth:
			out[i] = faults.Admission{Rejected: true}
		case o.Discipline == FIFO:
			out[i] = faults.Admission{Wait: seconds(c.work), Service: seconds(svc)}
		default:
			out[i] = faults.Admission{Wait: seconds(max(c.done(svc)-t-svc, 0)), Service: seconds(svc)}
		}
	}
	return out
}

// TestPriceMatchesStraightReplay holds Model.Price — saved states,
// replays resumed from them, arrivals drawn ahead four lanes at a time
// with expDraw — to straightQueue, bit for bit, on instants priced in
// shuffled order: FIFO and PS, bounded and unbounded, exponential and
// fixed service, with and without background load. The horizon spans
// several spine checkpoints, and queries share instants.
func TestPriceMatchesStraightReplay(t *testing.T) {
	const (
		n       = 600
		horizon = 800 * time.Second // 16k arrivals at λ = 20/s: four checkpoints
		replica = 1
	)
	r := rand.New(rand.NewSource(23))
	qs := make([]query, n)
	for i := range qs {
		at := time.Duration(r.Int63n(int64(horizon)))
		if i%10 == 9 {
			at = qs[r.Intn(i)].at // an instant another query priced
		}
		qs[i] = query{replica: replica, at: at, uid: uint64(r.Intn(50)), qh: r.Uint64(), seq: uint64(r.Intn(9)), attempt: 1 + r.Intn(3)}
	}
	qs[0].at = 0
	shuffled := r.Perm(n)

	for _, disc := range []Discipline{FIFO, PS} {
		for _, depth := range []int{0, 4} {
			for _, dist := range []Dist{DistExp, DistFixed} {
				for _, offered := range []float64{0, 30} {
					o := Options{
						Enabled: true, Seed: 9, Replicas: 3, ServiceRate: 30, QueueDepth: depth,
						Discipline: disc, Dist: dist, Offered: offered, CloneFactor: 2,
					}
					name := fmt.Sprintf("%v/depth%d/%v/offered%g", disc, depth, dist, offered)
					want := straightPrices(o, replica, qs)
					m := NewModel(o)
					waited, rejected := 0, 0
					for _, i := range shuffled {
						q := qs[i]
						got := m.Price(q.replica, q.at, q.uid, q.qh, q.seq, q.attempt)
						if got != want[i] {
							t.Fatalf("%s: query %d at %v: Price %+v, straight replay %+v", name, i, q.at, got, want[i])
						}
						if got.Wait > 0 {
							waited++
						}
						if got.Rejected {
							rejected++
						}
					}
					if offered > 0 && (waited < n/10 || depth > 0 && rejected == 0) {
						t.Errorf("%s: only %d of %d queries waited and %d were rejected: the load exercises too little",
							name, waited, n, rejected)
					}
					if offered > 0 && len(m.reps[replica].spineAt) < 4 {
						t.Errorf("%s: the horizon built only %d checkpoints", name, len(m.reps[replica].spineAt))
					}
				}
			}
		}
	}
}
