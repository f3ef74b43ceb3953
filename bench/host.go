package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// provenance says where a record was measured; numbers from different boxes
// or commits are not comparable, and -compare says so when these differ.
type provenance struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
}

// buildCommit and buildDirty are set by bench/run.sh through -ldflags -X; a
// tree that is not a git checkout leaves them at these defaults.
var (
	buildCommit = "unknown"
	buildDirty  = "false"
)

func readProvenance() provenance {
	p := provenance{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", GoVersion: runtime.Version(), Commit: buildCommit, Dirty: buildDirty == "true"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// llcBytes sums the last-level caches the run can use: the highest cache
// index under each CPU in sysRoot (/sys/devices/system/cpu), counting a cache
// shared by several CPUs once. It returns 0 when sysfs does not say.
func llcBytes(sysRoot string) int64 {
	cpus, _ := filepath.Glob(filepath.Join(sysRoot, "cpu[0-9]*"))
	seen := map[string]bool{}
	var total int64
	for _, cpu := range cpus {
		idx, _ := filepath.Glob(filepath.Join(cpu, "cache", "index[0-9]*"))
		best, bestLevel := "", -1
		for _, d := range idx {
			if lv, err := strconv.Atoi(readTrim(filepath.Join(d, "level"))); err == nil && lv > bestLevel {
				best, bestLevel = d, lv
			}
		}
		if best == "" {
			continue
		}
		key := strconv.Itoa(bestLevel) + ":" + readTrim(filepath.Join(best, "shared_cpu_list"))
		if seen[key] {
			continue
		}
		seen[key] = true
		total += parseSize(readTrim(filepath.Join(best, "size")))
	}
	return total
}

func readTrim(path string) string {
	raw, _ := os.ReadFile(path) // a missing file reads as ""
	return strings.TrimSpace(string(raw))
}

// parseSize reads sysfs cache sizes such as "2048K" or "32M".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, _ := strconv.ParseInt(s, 10, 64)
	return n * mult
}

// procBytes reads a "Key:   123 kB" line of a /proc file such as meminfo or
// <pid>/status, in bytes (0 when the file or the key is missing).
func procBytes(path, key string) int64 {
	raw, _ := os.ReadFile(path)
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == key+":" {
			kb, _ := strconv.ParseInt(f[1], 10, 64)
			return kb << 10
		}
	}
	return 0
}

const (
	probeMaxBytes  = 1 << 30  // per array
	probeFallback  = 64 << 20 // LLC guess when sysfs is silent
	probePasses    = 3        // the best pass counts
	gatherFraction = 8        // the gather reads 1/8 as many elements as the source holds
)

// probeArrayBytes sizes the roofline arrays: four times the summed LLC so no
// pass is served from cache, at most limit (1 GiB outside tests), and never
// more than an eighth of the free memory (three arrays are live at once).
func probeArrayBytes(llc, avail, limit int64) int64 {
	if llc <= 0 {
		llc = probeFallback
	}
	n := min(4*llc, limit)
	if avail > 0 {
		n = min(n, avail/8)
	}
	return n
}

// parallelRange runs body over [0,n) split into one contiguous part per
// worker w and waits.
func parallelRange(workers, n int, body func(w, lo, hi int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w)
	}
	wg.Wait()
}

// hostProbes measures the two ceilings the step is read against: the stream
// triad a = b + s*c and an int32-indexed gather dst[i] = src[idx[i]], both
// over arrays of arrayBytes on workers threads. Rates are computed from the
// bytes the loops name (24 per triad element, 20 per gathered element), in
// GB/s.
func hostProbes(parent handle, workers int, arrayBytes int64, seed int64) (triadGBs, gatherGBs float64) {
	n := int(arrayBytes / 8)
	h := parent.child("host.alloc")
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	parallelRange(workers, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			b[i], c[i] = float64(i), 1
		}
	})
	// A full-period LCG scatters the indices over the whole source.
	m := n / gatherFraction
	idx := make([]int32, m)
	x := uint64(seed)
	for i := range idx {
		x = x*6364136223846793005 + 1442695040888963407
		idx[i] = int32((x >> 33) % uint64(n))
	}
	h.end()

	best := func(name string, bytes float64, pass func()) float64 {
		rate := 0.0
		for p := 0; p < probePasses; p++ {
			h := parent.child(name)
			pass()
			if r := bytes / h.end().Seconds() / 1e9; r > rate {
				rate = r
			}
		}
		return rate
	}
	triadGBs = best("host.triad", 24*float64(n), func() {
		parallelRange(workers, n, func(_, lo, hi int) {
			a, b, c := a[lo:hi], b[lo:hi], c[lo:hi]
			for i := range a {
				a[i] = b[i] + 3*c[i]
			}
		})
	})
	gatherGBs = best("host.gather", 20*float64(m), func() {
		parallelRange(workers, m, func(_, lo, hi int) {
			dst, idx := a[lo:hi], idx[lo:hi]
			for i, j := range idx {
				dst[i] = b[j]
			}
		})
	})
	sink = a[n/2] // keeps the stores observable
	return triadGBs, gatherGBs
}

var sink float64
