package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostInfo is recorded with every result, so a slow host window reads as
// one rather than as a regression.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	CanaryS    float64 `json:"canary_s"`
	StealFrac  float64 `json:"steal_frac"`
}

func newHostInfo() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown", GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// canaryIters sizes the canary loop to a few milliseconds on current CPUs.
const canaryIters = 1 << 21

var canarySink uint64

// canaryLoop runs a fixed integer loop that touches none of the
// repository's code and returns its wall time: it slows only when the host
// does.
func canaryLoop() time.Duration {
	t0 := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < canaryIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	canarySink += x
	return time.Since(t0)
}

// canary samples canaryLoop between ops, at most once per interval.
type canary struct {
	every   time.Duration
	last    time.Time
	samples []float64
}

func (c *canary) maybe() {
	if time.Since(c.last) < c.every {
		return
	}
	c.samples = append(c.samples, canaryLoop().Seconds())
	c.last = time.Now()
}

// stealMeter reads the host's steal time from /proc/stat.
type stealMeter struct {
	steal, total uint64
}

func readSteal() stealMeter {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealMeter{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	var m stealMeter
	if len(f) < 9 || f[0] != "cpu" {
		return m
	}
	// user nice system idle iowait irq softirq steal; guest time is already
	// counted in user and nice.
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		m.total += v
		if i == 8 {
			m.steal = v
		}
	}
	return m
}

// since returns the share of CPU time stolen by the hypervisor since m.
func (m stealMeter) since() float64 {
	now := readSteal()
	if now.total <= m.total {
		return 0
	}
	return float64(now.steal-m.steal) / float64(now.total-m.total)
}

// rssWindows samples this process's peak resident set per window: at the
// end of each window it reads VmHWM and resets it to the current resident
// set (clear_refs 5), so each reading is the peak within one window. The
// median window peak does not grow with a run's length the way the
// lifetime peak, a maximum, does.
type rssWindows struct {
	stop chan struct{}
	done chan []float64
}

func sampleRSS(every time.Duration) *rssWindows {
	r := &rssWindows{stop: make(chan struct{}), done: make(chan []float64, 1)}
	pid := os.Getpid()
	resetHWM()
	go func() {
		var peaks []float64
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				r.done <- append(peaks, float64(vmHWM(pid)))
				return
			case <-tick.C:
				peaks = append(peaks, float64(vmHWM(pid)))
				resetHWM()
			}
		}
	}()
	return r
}

// finish stops the sampler and returns each window's peak, in bytes.
func (r *rssWindows) finish() []float64 {
	close(r.stop)
	return <-r.done
}

// resetHWM resets this process's VmHWM to its current resident set. Where
// the kernel refuses, VmHWM stays the lifetime peak.
func resetHWM() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	_, _ = f.WriteString("5")
	_ = f.Close()
}

// treeSampler polls the peak resident set (VmHWM) of a process and all its
// descendants while it runs. Each process's own peak is monotonic, so the
// last reading before it exits is its peak to within one poll.
type treeSampler struct {
	stop chan struct{}
	done chan int64
}

func sampleTree(pid int) *treeSampler {
	s := &treeSampler{stop: make(chan struct{}), done: make(chan int64, 1)}
	go func() {
		peaks := map[int]int64{}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			for _, p := range descendants(pid) {
				if v := vmHWM(p); v > peaks[p] {
					peaks[p] = v
				}
			}
			select {
			case <-s.stop:
				var sum int64
				for _, v := range peaks {
					sum += v
				}
				s.done <- sum
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the sum over the tree's processes
// of each one's peak resident set, in bytes.
func (s *treeSampler) finish() int64 {
	close(s.stop)
	return <-s.done
}

// descendants returns pid and every live process below it.
func descendants(pid int) []int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return []int{pid}
	}
	kids := map[int][]int{}
	for _, e := range ents {
		p, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// pid (comm) state ppid ...; comm may hold spaces and parentheses.
		i := bytes.LastIndexByte(b, ')')
		if i < 0 {
			continue
		}
		f := strings.Fields(string(b[i+1:]))
		if len(f) < 2 {
			continue
		}
		if pp, err := strconv.Atoi(f[1]); err == nil {
			kids[pp] = append(kids[pp], p)
		}
	}
	out := []int{pid}
	for i := 0; i < len(out); i++ {
		out = append(out, kids[out[i]]...)
	}
	return out
}

// vmHWM returns a process's peak resident set in bytes (0 once it is gone).
func vmHWM(pid int) int64 {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) > 0 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb * 1024
			}
		}
	}
	return 0
}
