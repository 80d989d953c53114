package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs, 0 for
// no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle value (mean of the middle two for even counts), 0
// for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// scaled returns xs each multiplied by k.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// trimCut is the share of samples trimmedMean drops from each end.
const trimCut = 0.1

// trimmedMean is the mean of xs without its lowest and highest trimCut
// shares: unlike a median it moves smoothly when the host's speed shifts
// under part of the samples, and unlike a plain mean one stalled sample
// does not move it.
func trimmedMean(xs []float64) float64 {
	s := sortedCopy(xs)
	k := int(trimCut * float64(len(s)))
	return mean(s[k : len(s)-k])
}

// tailBlock is the fewest samples in one block of a tail metric: at least
// 40, so each block's tail is its 75th percentile or higher.
const tailBlock = 40

// blocks splits xs in order into as many blocks of at least size samples
// as it holds, of equal size give or take one (one block when xs is
// shorter than size).
func blocks(xs []float64, size int) [][]float64 {
	n := max(1, len(xs)/size)
	out := make([][]float64, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n : (i+1)*len(xs)/n]
	}
	return out
}

// tailPercentiles are the candidates for a tail metric, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest candidate percentile that leaves at least ten
// samples beyond it, with that percentile (p50 when there are too few).
func tail(xs []float64) (value, pct float64) {
	n := float64(len(xs))
	for _, p := range tailPercentiles {
		if n*(1-p/100) >= 10 {
			return quantile(xs, p/100), p
		}
	}
	return quantile(xs, 0.5), 50
}

func ms(d time.Duration) float64  { return float64(d) / 1e6 }
func sec(d time.Duration) float64 { return d.Seconds() }

// ratio returns num/den, 0 when den is not positive.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// cpuNow is the process's CPU time so far: user plus system, all threads.
// The kernel leaves out time the host gave to other guests (steal), so
// unlike wall time it does not grow when a neighbour takes the CPU.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
