package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostProbe records how disturbed the host was during a run: a fixed
// stdlib-only reference kernel timed at the start and the end, and the
// host's CPU steal time over the run. Neither is an end-to-end metric; a
// slow reference kernel marks a run slowed by the host, not by the program.
type hostProbe struct {
	refStart time.Duration
	steal0   float64
}

func startHost() *hostProbe {
	return &hostProbe{refStart: refKernel(), steal0: stealMs()}
}

// stop returns the mean reference-kernel time and the steal over the run.
func (h *hostProbe) stop() (refMs, steal float64) {
	refEnd := refKernel()
	return float64(h.refStart+refEnd) / 2 / 1e6, stealMs() - h.steal0
}

// refKernel sorts and map-inserts a fixed set of generated strings and
// returns how long that took. Its work never changes, so its time tracks
// only the speed the host gives this process.
func refKernel() time.Duration {
	const n = 200_000
	keys := make([]string, n)
	x := uint64(88172645463325252)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = strconv.FormatUint(x%1_000_000_007, 36)
	}
	start := time.Now()
	m := make(map[string]int, 1024)
	for i, k := range keys {
		m[k] += i
	}
	sort.Strings(keys)
	elapsed := time.Since(start)
	if len(m) == 0 || keys[0] > keys[n-1] {
		panic("reference kernel computed nothing")
	}
	return elapsed
}

// stealMs reads the host's cumulative CPU steal time from /proc/stat, in
// milliseconds (0 where the file or the field is missing).
func stealMs() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks * 1000 / clockTicks
}

// clockTicks is the kernel's USER_HZ, the unit of /proc's CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPUms returns a process's user+system CPU time in milliseconds, read
// from /proc/<pid>/stat.
func procCPUms(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return (ut + st) * 1000 / clockTicks, nil
}

// procRSSmb reads a process's resident memory in MB from /proc.
func procRSSmb(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("malformed /proc/%d/statm", pid)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("malformed /proc/%d/statm", pid)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// second is about one second of a process's life (20 samples; longer when
// ticks are dropped): the CPU time it spent per second of wall time, and the
// largest resident memory sampled in it.
type second struct{ cpuMs, peakRSSmb float64 }

// sampleProc samples a process's resident memory every 50 ms and its CPU
// time every 20 samples until stop is called; stop returns the whole
// seconds.
func sampleProc(pid int) (stop func() ([]second, error)) {
	done := make(chan struct{})
	type result struct {
		secs []second
		err  error
	}
	res := make(chan result, 1)
	go func() {
		var secs []second
		var cur second
		prev, err := procCPUms(pid)
		since := time.Now()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for n := 1; err == nil; n++ {
			select {
			case <-done:
				res <- result{secs, nil}
				return
			case <-tick.C:
			}
			var rss float64
			if rss, err = procRSSmb(pid); err != nil {
				break
			}
			cur.peakRSSmb = max(cur.peakRSSmb, rss)
			if n%20 == 0 {
				var now float64
				if now, err = procCPUms(pid); err == nil {
					cur.cpuMs = (now - prev) / time.Since(since).Seconds()
					prev, since = now, time.Now()
					secs, cur = append(secs, cur), second{}
				}
			}
		}
		<-done
		res <- result{nil, err}
	}()
	return func() ([]second, error) {
		close(done)
		r := <-res
		return r.secs, r.err
	}
}

// leftoverChildren lists processes whose parent is this process.
func leftoverChildren() []int {
	self := os.Getpid()
	paths, _ := filepath.Glob("/proc/[0-9]*/stat")
	var out []int
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		s := string(data)
		i := strings.LastIndexByte(s, ')')
		if i < 0 {
			continue
		}
		f := strings.Fields(s[i+1:])
		if len(f) < 2 {
			continue
		}
		if ppid, err := strconv.Atoi(f[1]); err == nil && ppid == self {
			pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(p)))
			out = append(out, pid)
		}
	}
	return out
}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// durMs converts a duration to float milliseconds.
func durMs(d time.Duration) float64 { return float64(d) / 1e6 }
