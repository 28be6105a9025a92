package main

import "time"

// The reference loop. This box's two vCPUs share their cores and caches with
// other tenants, and the speed of map-heavy Go code on it drifts by a third
// over minutes: ten runs of write-uniform-1ch spread 10 to 30 % between their
// quartiles, while a pure ALU loop stays within 1 %. A loop with the program's
// own appetite — lookups, inserts and deletes in a map too big for the L2
// cache — slows down with it. So every host time of the end-to-end run is
// divided by how much slower than nominal the reference loop ran right before
// and after it; the same runs then spread 3 to 5 %. The loop uses only the Go
// runtime, nothing of the program, so a change to the program cannot move it.
const (
	referenceEntries = 200_000
	// referenceNominal is the time of sizing.ReferenceSteps steps at full
	// size on this box when nobody disturbs it. It only fixes the scale:
	// host times read as on that quiet box.
	referenceNominal = 50 * time.Millisecond
)

type reference struct {
	m     map[int64]*[6]int64
	steps int
}

func newReference(steps int) *reference {
	r := &reference{m: make(map[int64]*[6]int64, referenceEntries), steps: steps}
	for i := int64(0); i < referenceEntries; i++ {
		r.m[i] = new([6]int64)
	}
	return r
}

// release drops the loop's map; slowdown must not be called afterwards.
func (r *reference) release() { r.m = nil }

// slowdown runs the loop once and returns its time over the nominal time:
// above 1 when the machine is slower than nominal. A nil reference measures
// nothing and returns 1.
func (r *reference) slowdown() float64 {
	if r == nil {
		return 1
	}
	start := time.Now()
	x := uint64(88172645463325252)
	var sum int64
	for i := 0; i < r.steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := int64(x % referenceEntries)
		v := r.m[k]
		v[0] = k
		sum += r.m[int64((x>>20)%referenceEntries)][0]
		moved := int64((x >> 40) % referenceEntries)
		delete(r.m, moved)
		r.m[moved] = v
		r.m[k] = v
	}
	sink += int(sum)
	return float64(time.Since(start)) / float64(referenceNominal)
}
