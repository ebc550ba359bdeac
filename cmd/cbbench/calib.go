package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host is a shared VM: its speed drifts by half over minutes and
// swings by a sixth from one tenth of a second to the next, far more
// than the changes this benchmark must resolve. So every time-based
// end-to-end metric is normalized to a reference host speed, measured
// all through the run by a probe with two parts, sampled every
// probeEvery:
//
//   - how fast a vCPU runs while it runs: a goroutine locked to its own
//     OS thread runs a short fixed kernel and records the thread CPU
//     time it took. CPU time leaves out the time the probe waits for
//     the benchmark's or the daemon's threads, and the time the host
//     takes the vCPU away, but not other tenants' contention for shared
//     cores and caches.
//   - how much of the CPU time the guest asked for the host granted:
//     the steal and busy counters of /proc/stat. Steal is the time a
//     vCPU had work but the host ran something else.
//
// The slowdown is the kernel's CPU time over its reference time,
// divided by the granted share busy/(busy+steal). Neither part depends
// on how much CPU the service itself uses: steal accrues only while a
// vCPU has work, and a saturating load in the guest moved the kernel's
// median CPU time by 4% (faster) against idle. The kernel uses only the
// standard library, so it is the same program at every commit of the
// repository. Raw values are printed next to the normalized ones.

const (
	// probeNominal is the kernel's CPU time on the reference host: a
	// 2-vCPU Xeon VM at 2.1 GHz at its quietest, the 5th percentile of
	// a minute's samples. Normalized values are what that host would
	// have measured with no steal.
	probeNominal = 1780 * time.Microsecond
	probeEvery   = 100 * time.Millisecond
	// An interval with fewer than probeMin samples (a short set-up) is
	// widened to start probeMin samples earlier.
	probeMin = 10
)

// hostSample is one probe sample.
type hostSample struct {
	at          time.Time // when the sample ended
	slow        float64   // the kernel's CPU time over probeNominal
	busy, steal int64     // cumulative /proc/stat ticks, all CPUs
}

// probe samples the host's speed from start until close.
type probe struct {
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []hostSample
}

func startProbe() *probe {
	p := &probe{stop: make(chan struct{}), done: make(chan struct{})}
	go p.run()
	return p
}

func (p *probe) run() {
	defer close(p.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	k := newProbeKernel()
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		c0 := threadCPU()
		k.run()
		s := hostSample{at: time.Now(), slow: float64(threadCPU()-c0) / float64(probeNominal)}
		// Without the counters the slowdown is the kernel's alone.
		s.busy, s.steal, _ = cpuTicks()
		p.mu.Lock()
		p.samples = append(p.samples, s)
		p.mu.Unlock()
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
	}
}

// close stops the probe and waits until its goroutine has ended.
func (p *probe) close() {
	close(p.stop)
	<-p.done
}

// factor is the host's slowdown against the reference from from to to,
// above 1 when it was slower, and the share of the CPU time asked for
// that the host took away meanwhile. An interval too short to hold
// probeMin samples starts earlier.
func (p *probe) factor(from, to time.Time) (slowdown, steal float64) {
	in := p.between(from, to)
	if len(in) < probeMin {
		in = p.between(from.Add(-probeMin*probeEvery), to)
	}
	if len(in) < 2 {
		return 1, 0
	}
	slow := 0.0
	for _, s := range in {
		slow += s.slow
	}
	slow /= float64(len(in))
	first, last := in[0], in[len(in)-1]
	if asked := (last.busy - first.busy) + (last.steal - first.steal); asked > 0 {
		steal = float64(last.steal-first.steal) / float64(asked)
	}
	return slow / (1 - steal), steal
}

func (p *probe) between(from, to time.Time) []hostSample {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []hostSample
	for _, s := range p.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			out = append(out, s)
		}
	}
	return out
}

// cpuTicks reads the busy (user, nice, system, irq, softirq) and steal
// ticks of all CPUs from the first line of /proc/stat.
func cpuTicks() (busy, steal int64, err error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, 0, err
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(fields[i+1], 10, 64); err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
	}
	// user nice system idle iowait irq softirq steal
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7], nil
}

// threadCPU is the calling OS thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	// clock_gettime cannot fail for this clock and a valid pointer.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// probeKernel sorts, hashes, churns a map and formats numbers: branchy,
// arithmetic and memory-bound work, like the daemon's, on a working set
// of about 300 KB. It allocates only in newProbeKernel, so the garbage
// collector, and with it the size of the benchmark's own heap, plays no
// part in its time.
type probeKernel struct {
	x      uint64
	ints   []int
	buf    []byte
	m      map[uint64]uint64
	digits []byte
	sum    [32]byte
}

func newProbeKernel() *probeKernel {
	return &probeKernel{
		x:      88172645463325252,
		ints:   make([]int, 1<<14),
		buf:    make([]byte, 1<<15),
		m:      make(map[uint64]uint64, 1<<13),
		digits: make([]byte, 0, 32),
	}
}

func (k *probeKernel) next() uint64 {
	k.x ^= k.x << 13
	k.x ^= k.x >> 7
	k.x ^= k.x << 17
	return k.x
}

func (k *probeKernel) run() {
	for i := range k.ints {
		k.ints[i] = int(k.next() >> 1)
	}
	sort.Ints(k.ints)
	for i := range k.buf {
		k.buf[i] = byte(k.next())
	}
	k.sum = sha256.Sum256(k.buf)
	for i := 0; i < 1<<13; i++ {
		k.m[k.next()&(1<<13-1)] += uint64(k.ints[i])
	}
	for i := 0; i < 1<<12; i++ {
		k.digits = strconv.AppendUint(k.digits[:0], k.next(), 10)
		k.sum[i%32] ^= k.digits[len(k.digits)-1]
	}
}
