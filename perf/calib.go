package main

import (
	"math"
	"time"
)

// Host-speed calibration.
//
// The hosts this benchmark runs on switch between speed states under it:
// for tens of seconds at a time the same mimd_small pass takes 1.29 s,
// 1.65 s or 1.9 s, and a fixed arithmetic loop takes 59, 75 or 80 ms in
// step with it (clock and shared-core effects, not the simulator). A median
// over a run does not remove a state that outlasts the run: ten-run
// windows of raw mimd_small medians spread 11-35 %, and the driver refuses
// a benchmark whose spread exceeds 25 %. The benchmark therefore times a
// fixed reference program of its own next to every pass and reports host
// time scaled to a reference host speed:
//
//	reported seconds = measured seconds x refCalibS / calibration seconds
//
// The reference program is an integer-ALU loop and a dependent-load chase
// over 16 MB, the two things the simulator's hot loops are bound by; its
// time is the geometric mean of the two. It shares no code with the
// simulator, so no change to the simulator can move it.
const (
	calibALUIters  = 40_000_000
	calibChaseLen  = 1 << 22 // uint32 indices: 16 MB, beyond the last-level cache share
	calibChaseHops = 1_000_000
	// refCalibS is one calibration on the sizing host in its fastest state.
	// It only fixes the unit: at that speed reported seconds are measured
	// seconds, and no ratio between two commits depends on it.
	refCalibS = 0.069
)

type calibrator struct {
	chase []uint32 // one random cycle through every index
	sink  uint64   // keeps the loops' results live
}

func newCalibrator() *calibrator {
	c := &calibrator{chase: make([]uint32, calibChaseLen)}
	for i := range c.chase {
		c.chase[i] = uint32(i)
	}
	// Sattolo's shuffle with a fixed xorshift stream: a single cycle, the
	// same on every run.
	x := uint64(88172645463325252)
	for i := len(c.chase) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		c.chase[i], c.chase[j] = c.chase[j], c.chase[i]
	}
	return c
}

// run times the reference program once.
func (c *calibrator) run() time.Duration {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < calibALUIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	alu := time.Since(t0)
	t0 = time.Now()
	p := uint32(0)
	for i := 0; i < calibChaseHops; i++ {
		p = c.chase[p]
	}
	mem := time.Since(t0)
	c.sink += x + uint64(p)
	return time.Duration(math.Sqrt(float64(alu) * float64(mem)))
}

// speed is the host's speed during an interval bracketed by two
// calibrations, relative to the reference host (1 = reference, below 1 =
// slower).
func speed(before, after time.Duration) float64 {
	return refCalibS / ((before + after).Seconds() / 2)
}
