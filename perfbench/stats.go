package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []time.Duration) time.Duration { return percentile(xs, 50) }

// p10 is the 10th percentile of the operation latencies lat. When calls
// holds the latencies of the calls an operation is made of, by kind, it is
// instead the sum of each kind's 10th percentile: an operation whose every
// call ran at its own 10th percentile. Kinds that differ tenfold in cost
// would otherwise mix in one distribution.
func p10(lat []time.Duration, calls map[string][]time.Duration) time.Duration {
	if len(calls) == 0 {
		return percentile(lat, 10)
	}
	var sum time.Duration
	for _, c := range calls {
		sum += percentile(c, 10)
	}
	return sum
}

// tail returns the highest of p99.9, p99 and p90 that has at least ten
// samples beyond it, with its name. With fewer than 100 samples no
// percentile qualifies and the tail is the maximum.
func tail(xs []time.Duration) (time.Duration, string) {
	for _, p := range []struct {
		p    float64
		name string
	}{{99.9, "p99.9"}, {99, "p99"}, {90, "p90"}} {
		if float64(len(xs))*(1-p.p/100) >= 10 {
			return percentile(xs, p.p), p.name
		}
	}
	return percentile(xs, 100), "max"
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// op is one timed operation of a workload: a report, a run or a request.
type op struct {
	class string // "cached" or "cold" on serve; the workload name elsewhere
	lat   time.Duration
	ok    bool
}

// latencies returns the latencies of the successful operations of a class
// ("" for all classes).
func latencies(ops []op, class string) []time.Duration {
	var out []time.Duration
	for _, o := range ops {
		if o.ok && (class == "" || o.class == class) {
			out = append(out, o.lat)
		}
	}
	return out
}

// withinSLO returns the share of operations that succeeded within their
// class's latency limit; failed operations count as misses.
func withinSLO(ops []op, limit func(class string) time.Duration) float64 {
	if len(ops) == 0 {
		return 0
	}
	n := 0
	for _, o := range ops {
		if o.ok && o.lat <= limit(o.class) {
			n++
		}
	}
	return float64(n) / float64(len(ops))
}
