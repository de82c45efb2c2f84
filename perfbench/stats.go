package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile is the percentile rule for reported tail latencies: the
// highest percentile, at most 90, that still has at least ten samples
// beyond it, so a tail figure never rests on a handful of outliers. With
// fewer than 20 samples no tail above the median qualifies and the
// median (50) is returned. The result is a percentage.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	p := 100 * (1 - 10/float64(n))
	return math.Min(90, math.Floor(p))
}

// interval is one closed time range [start, end] in milliseconds.
type interval struct{ start, end float64 }

// unionLength returns the total length covered by the intervals, each
// clipped to within, counting overlapping stretches once. Parallel
// workers make sibling spans overlap, so summing their durations would
// count the same wall-clock millisecond once per worker.
func unionLength(within interval, ivs []interval) float64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := math.Max(iv.start, within.start), math.Min(iv.end, within.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total float64
	cur := interval{math.Inf(-1), math.Inf(-1)}
	for _, iv := range clipped {
		if iv.start > cur.end {
			if cur.end > cur.start {
				total += cur.end - cur.start
			}
			cur = iv
			continue
		}
		cur.end = math.Max(cur.end, iv.end)
	}
	if cur.end > cur.start {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the part of its interval that its
// children cover: the time the span spent that no child accounts for.
func selfTime(span interval, children []interval) float64 {
	return (span.end - span.start) - unionLength(span, children)
}
