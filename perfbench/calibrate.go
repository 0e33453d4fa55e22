package main

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Machine-speed calibration. On a shared virtual machine the speed of the
// same code drifts by a fifth or more over minutes, with the load of other
// tenants; a run of a few seconds sits in one such phase, so raw timings
// spread across runs by more than any useful regression bound. Each run
// therefore also times a fixed calibration kernel — benchmark code, not
// the program's — on as many threads as the workload keeps busy, and the
// timed end-to-end metrics are scaled to a reference machine on which the
// kernel takes calRefS. The raw timings are printed with the details.
const calRefS = 0.1

// calSink keeps the kernel's result alive.
var calSink atomic.Uint64

// calBufs holds each calibration thread's arrays: the 4 MiB array the
// kernel sorts and its histogram. They are allocated and touched once and
// then kept, so the kernel never allocates: fresh memory costs page faults
// and collections, whose price drifts with the host's memory pressure
// rather than with the speed the program's own work runs at.
var calBufs [][2][]uint64

// calKernel is fixed CPU and memory work of the kind the program does: fill
// a from a xorshift generator, sort it, and count a strided sample of it
// into the hashed histogram h.
func calKernel(a, h []uint64) {
	clear(h)
	x := uint64(88172645463325252)
	for i := range a {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a[i] = x
	}
	slices.Sort(a)
	for i := range 1 << 17 {
		v := a[(i*7919)&(len(a)-1)]
		h[(v*0x9E3779B97F4A7C15)>>(64-15)]++
	}
	calSink.Add(a[len(a)/2] + h[0])
}

// calibrate runs the kernel on threads goroutines at once and returns the
// wall seconds. It is called from one goroutine at a time.
func calibrate(threads int) float64 {
	for len(calBufs) < threads {
		b := [2][]uint64{make([]uint64, 1<<19), make([]uint64, 1<<15)}
		calKernel(b[0], b[1])
		calBufs = append(calBufs, b)
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calKernel(calBufs[i][0], calBufs[i][1])
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// speedScale is the factor that turns this run's timings into reference
// ones: the reference kernel time over the run's median kernel time.
func speedScale(cal []float64) float64 { return calRefS / median(cal) }
