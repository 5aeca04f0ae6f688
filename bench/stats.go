package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule; 0 for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median sorts a copy of xs and returns the middle value (the mean of
// the two middle values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first quartile, median and third quartile by
// the method Python's statistics.quantiles(xs, n=4) uses ("exclusive":
// position i*(n+1)/4 with linear interpolation), which is what the
// benchmark's acceptance rule is written in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		frac := pos - float64(j) // taken before clamping, as Python does
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// span is one operation's interval on the phase clock.
type span struct{ start, end time.Duration }

// windowRates spreads every operation over the fixed windows its
// interval overlaps, in proportion to the overlap, and returns each
// window's operations per second. A plain count per window steps by
// whole operations, which on scan_stream (about a dozen operations a
// second) would quantise the median to +-8%; the fractional share does
// not, and a closed loop keeps every connection inside some operation
// almost all the time, so the shares of a window add up to its true
// rate.
func windowRates(ops []span, window time.Duration, windows int) []float64 {
	rates := make([]float64, windows)
	for _, op := range ops {
		dur := op.end - op.start
		if dur <= 0 {
			if w := int(op.end / window); w >= 0 && w < windows {
				rates[w]++
			}
			continue
		}
		for w := int(op.start / window); w < windows && time.Duration(w)*window < op.end; w++ {
			if w < 0 {
				continue
			}
			lo, hi := time.Duration(w)*window, time.Duration(w+1)*window
			if op.start > lo {
				lo = op.start
			}
			if op.end < hi {
				hi = op.end
			}
			rates[w] += float64(hi-lo) / float64(dur)
		}
	}
	for w := range rates {
		rates[w] /= window.Seconds()
	}
	return rates
}
