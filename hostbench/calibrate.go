package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"
)

// The benchmark's host is a shared VM whose speed drifts by 20–30% over
// minutes, and per-op CPU time drifts with wall time, so the drift is
// contention rather than preemption. A fixed calibration kernel, timed
// between ops, drifts with it: over runs whose raw Kmeans op medians
// ranged 0.30–0.41 s, op time over kernel time stayed within 54–58.
// Every timing the benchmark reports is therefore scaled to a reference
// host speed: reported = measured × calRefSeconds / (this run's median
// kernel time). The report lines show the raw medians and the factor.

// calRefSeconds is the calibration kernel's time on the reference host.
const calRefSeconds = 0.005

// calSink keeps the kernel's result observable.
var calSink float64

// calibrationKernel is fixed work in the mix the simulator does on the
// host: integer hashing, map updates, small string allocations, a sort and
// float math. It uses no repository code, so no change to the simulator
// can move it.
func calibrationKernel() {
	m := make(map[uint64]int)
	var s []string
	x := uint64(88172645463325252)
	acc := 0.0
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x%4096] += i
		s = append(s, strconv.FormatUint(x%100000, 10))
		acc += math.Sqrt(float64(x % 1000))
	}
	sort.Strings(s)
	calSink = acc + float64(len(m)) + float64(len(s[0]))
}

// hostClock collects one run's calibration samples.
type hostClock struct{ samples []float64 }

// sample times n runs of the calibration kernel.
func (c *hostClock) sample(n int) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		calibrationKernel()
		c.samples = append(c.samples, time.Since(t0).Seconds())
	}
}

// scale converts this run's host seconds to reference-host seconds.
func (c *hostClock) scale() float64 { return calRefSeconds / median(c.samples) }

// normalize scales every time metric by f and every per-second rate by
// 1/f; counts and ratios are left alone.
func normalize(m map[string]metric, f float64) {
	for name, v := range m {
		switch v.Unit {
		case "s":
			v.Value *= f
		case "1/s", "MB/s":
			v.Value /= f
		}
		m[name] = v
	}
}

// report prints the run's calibration so raw values can be recovered.
func (c *hostClock) report(w io.Writer) {
	fmt.Fprintf(w, "host calibration: kernel median %.6f s over %d samples; times are scaled by %.4f to a %.3f s kernel\n",
		median(c.samples), len(c.samples), c.scale(), calRefSeconds)
}
