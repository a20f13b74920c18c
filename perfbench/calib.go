package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The benchmark runs on hosts shared with other tenants, whose speed for
// this kind of code drifts by 20-35% within a minute. Every run therefore
// also times a fixed reference kernel, interleaved with its operations,
// and reports end-to-end times scaled to a host on which the kernel takes
// refKernelMS: time × refKernelMS / (the run's median kernel time), and
// rates the other way round. The kernel uses the standard library only
// (JSON, maps, sorting, allocation — the kinds of work the served path
// does) and calls no code of the program, so a change to the program
// cannot move it. The raw wall-clock values are printed beside the
// scaled ones.

// refKernelMS is the reference host's kernel time.
const refKernelMS = 10.0

// kernelEvery is how often client 0 runs the kernel between operations.
const kernelEvery = 500 * time.Millisecond

// kernelRecord is the fixed input of the reference kernel.
type kernelRecord struct {
	ID    string            `json:"id"`
	Rule  map[string]string `json:"rule"`
	Count float64           `json:"count"`
	Kids  []int             `json:"kids"`
}

var (
	kernelMu   sync.Mutex
	kernelSink int
)

// referenceKernel runs a fixed amount of standard-library work and
// returns how long it took.
func referenceKernel() time.Duration {
	rng := rand.New(rand.NewSource(1))
	recs := make([]kernelRecord, 400)
	for i := range recs {
		recs[i] = kernelRecord{
			ID:    strconv.Itoa(i),
			Rule:  map[string]string{"a": strconv.Itoa(rng.Intn(50)), "b": strconv.Itoa(rng.Intn(9))},
			Count: rng.Float64() * 1e5,
			Kids:  []int{i, i + 1, i + 2},
		}
	}
	start := time.Now()
	raw, _ := json.Marshal(recs)
	var back []kernelRecord
	_ = json.Unmarshal(raw, &back)
	m := map[string]int{}
	for i := 0; i < 20000; i++ {
		m[strconv.Itoa(rng.Intn(100000))]++
	}
	xs := make([]int, 50000)
	for i := range xs {
		xs[i] = rng.Int()
	}
	sort.Ints(xs)
	took := time.Since(start)
	kernelMu.Lock()
	kernelSink += len(back) + len(m) + xs[0]&1
	kernelMu.Unlock()
	return took
}

// hostScale is the factor that turns the run's wall-clock times into
// reference-host times: refKernelMS over the median kernel time (1 when
// the kernel never ran).
func (r *recording) hostScale() float64 {
	if len(r.kernelMS) == 0 {
		return 1
	}
	return refKernelMS / quantile(r.kernelMS, 0.5)
}
