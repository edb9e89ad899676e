package loadgen

import (
	"math"
	"math/bits"
	"time"
)

// histBuckets bounds the histogram's bucket array. With quarter-octave
// buckets starting at 1 µs, bucket 199 covers latencies beyond 10^9
// seconds — effectively unbounded.
const histBuckets = 200

// Histogram is a log-bucketed latency histogram: bucket 0 holds
// sub-microsecond samples and every later bucket spans a quarter
// octave (×2^¼ ≈ 1.19), so quantiles are accurate to ~±9% across nine
// decades at a fixed 200-counter footprint. The zero value is ready to
// use. Histograms are value-mergeable and order-independent: the same
// multiset of samples produces the same histogram, which is what makes
// the load generator's modeled-latency percentiles reproducible across
// runs even though workers interleave differently.
//
// Histogram is not safe for concurrent use; the Collector serializes
// access.
type Histogram struct {
	counts   [histBuckets]uint64
	total    uint64
	sum      time.Duration
	min, max time.Duration
}

// bucketLower[i] is the least duration bucket i holds: the boundaries of
// 1 + floor(4·log2(d/1µs)) as float64 arithmetic draws them, precomputed
// so a sample costs integer compares instead of a logarithm (hist_test.go
// keeps the formula and holds every entry to it). Exact quarter octaves
// up to ~6 days; beyond, float64 rounding had placed them a little early.
var bucketLower = [histBuckets]time.Duration{
	0, 1000, 1190, 1415, 1682, 2000, 2379, 2829, 3364, 4000, 4757, 5657, 6728, 8000, 9514,
	11314, 13455, 16000, 19028, 22628, 26909, 32000, 38055, 45255, 53818, 64000, 76110, 90510,
	107635, 128000, 152219, 181020, 215270, 256000, 304438, 362039, 430539, 512000, 608875,
	724078, 861078, 1024000, 1217749, 1448155, 1722156, 2048000, 2435497, 2896310, 3444312,
	4096000, 4870993, 5792619, 6888624, 8192000, 9741985, 11585238, 13777247, 16384000,
	19483970, 23170476, 27554494, 32768000, 38967939, 46340951, 55108988, 65536000, 77935878,
	92681901, 110217975, 131072000, 155871755, 185363801, 220435950, 262144000, 311743510,
	370727601, 440871900, 524288000, 623487020, 741455201, 881743800, 1048576000, 1246974040,
	1482910401, 1763487600, 2097152000, 2493948080, 2965820801, 3526975199, 4194304000,
	4987896160, 5931641602, 7053950397, 8388608000, 9975792319, 11863283204, 14107900793,
	16777216000, 19951584638, 23726566407, 28215801585, 33554432000, 39903169275, 47453132813,
	56431603170, 67108864000, 79806338549, 94906265625, 112863206339, 134217728000,
	159612677098, 189812531249, 225726412678, 268435456000, 319225354195, 379625062498,
	451452825355, 536870912000, 638450708389, 759250124995, 902905650710, 1073741824000,
	1276901416777, 1518500249989, 1805811301420, 2147483648000, 2553802833554, 3037000499977,
	3611622602839, 4294967296000, 5107605667108, 6074000999953, 7223245205677, 8589934592000,
	10215211334215, 12148001999905, 14446490411354, 17179869184000, 20430422668429,
	24296003999809, 28892980822707, 34359738368000, 40860845336858, 48592007999617,
	57785961645414, 68719476736000, 81721690673715, 97184015999234, 115571923290827,
	137438953472000, 163443381347430, 194368031998467, 231143846581654, 274877906944000,
	326886762694860, 388736063996934, 462287693163307, 549755813887999, 653773525389720,
	777472127993867, 924575386326613, 1099511627775998, 1307547050779440, 1554944255987734,
	1849150772653226, 2199023255551995, 2615094101558879, 3109888511975468, 3698301545306451,
	4398046511103990, 5230188203117758, 6219777023950935, 7396603090612901, 8796093022207979,
	10460376406235515, 12439554047901870, 14793206181225802, 17592186044415958,
	20920752812471030, 24879108095803739, 29586412362451603, 35184372088831915,
	41841505624942060, 49758216191607477, 59172824724903205, 70368744177663829,
	83683011249884120, 99516432383214953, 118345649449806409, 140737488355327657,
	167366022499768240, 199032864766429905, 236691298899612817, 281474976710655313,
	334732044999536480, 398065729532859809, 473382597799225633, 562949953421310625,
	669464089999072960, 796131459065719617,
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	if d < time.Microsecond {
		return 0
	}
	if d >= bucketLower[histBuckets-1] {
		return histBuckets - 1
	}
	// floor(log2 d) - 10 is d's octave above 1 µs (1000 ≈ 2^9.97), or one
	// below it: settle the octave, then the quarter within it.
	i := 4*(bits.Len64(uint64(d))-11) + 1
	if i < 1 || i+4 < histBuckets && d >= bucketLower[i+4] {
		i += 4
	}
	for d >= bucketLower[i+1] {
		i++
	}
	return i
}

// bucketUpper returns the exclusive upper bound of a bucket.
func bucketUpper(i int) time.Duration {
	if i <= 0 {
		return time.Microsecond
	}
	return time.Duration(float64(time.Microsecond) * math.Pow(2, float64(i)/4))
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)]++
	h.total++
	h.sum += d
	if h.total == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Merge folds another histogram into this one.
func (h *Histogram) Merge(o *Histogram) {
	if o.total == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
	h.sum += o.sum
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the exact mean of all samples.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration { return h.max }

// Min returns the smallest sample.
func (h *Histogram) Min() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Quantile returns the latency at or below which a fraction q of the
// samples fall, reported as the holding bucket's upper bound (clamped
// to the exact observed extrema).
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= target {
			u := bucketUpper(i)
			if u > h.max {
				u = h.max
			}
			if u < h.min {
				u = h.min
			}
			return u
		}
	}
	return h.max
}

// LatencySummary is the machine-readable digest of a histogram, with
// durations in integer nanoseconds for stable JSON.
type LatencySummary struct {
	Count  uint64 `json:"count"`
	MeanNS int64  `json:"mean_ns"`
	MinNS  int64  `json:"min_ns"`
	P50NS  int64  `json:"p50_ns"`
	P90NS  int64  `json:"p90_ns"`
	P99NS  int64  `json:"p99_ns"`
	P999NS int64  `json:"p999_ns"`
	MaxNS  int64  `json:"max_ns"`
}

// Summary digests the histogram.
func (h *Histogram) Summary() LatencySummary {
	return LatencySummary{
		Count:  h.total,
		MeanNS: int64(h.Mean()),
		MinNS:  int64(h.Min()),
		P50NS:  int64(h.Quantile(0.50)),
		P90NS:  int64(h.Quantile(0.90)),
		P99NS:  int64(h.Quantile(0.99)),
		P999NS: int64(h.Quantile(0.999)),
		MaxNS:  int64(h.Max()),
	}
}
