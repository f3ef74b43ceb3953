package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// readRecords loads the untraced records of an -out file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// values collects one metric's value over the runs of one workload.
func values(recs []record, workload, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict places B's median against A's for one metric of one workload.
// worse is the relative change in the metric's bad direction; spread is the
// wider of the two sets' quartile distances over their medians. A metric
// whose spread exceeds its bound is unresolved, whatever the medians say.
func verdict(d decl, a, b []float64) (worse, spr float64, word string) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	if d.Better == "higher" {
		worse = -worse
	}
	spr = math.Max(spread(a), spread(b))
	switch {
	case math.IsNaN(spr) || spr > d.Bound:
		word = "unresolved"
	case worse > d.Bound:
		word = "WORSE"
	default:
		word = "within"
	}
	return worse, spr, word
}

// compareFiles prints, per workload and end-to-end metric, how set B's median
// sits against set A's and the metric's bound. It reports false when any
// pairing is worse than its bound or unresolved.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	if len(a) == 0 || len(b) == 0 {
		return false, fmt.Errorf("compare: %d untraced records in %s, %d in %s", len(a), pathA, len(b), pathB)
	}
	if pa, pb := a[0].Provenance, b[0].Provenance; pa.CPUModel != pb.CPUModel || pa.NumCPU != pb.NumCPU || pa.GoVersion != pb.GoVersion {
		fmt.Fprintf(w, "WARNING: the sets come from different hosts or toolchains (%+v vs %+v); their times are not comparable\n", pa, pb)
	}
	fmt.Fprintf(w, "A = %s (commit %.12s)   B = %s (commit %.12s)\n", pathA, a[0].Provenance.Commit, pathB, b[0].Provenance.Commit)
	ok := true
	for _, wl := range workloads {
		fmt.Fprintf(w, "%s\n", wl.Name)
		for _, d := range endToEnd {
			va, vb := values(a, wl.Name, d.Name), values(b, wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "  %-18s missing (A has %d runs, B has %d)\n", d.Name, len(va), len(vb))
				ok = false
				continue
			}
			worse, spr, word := verdict(d, va, vb)
			fmt.Fprintf(w, "  %-18s A %12.6g  B %12.6g %-4s worse by %+6.2f%%  spread %5.2f%%  bound %4.1f%%  n=%d/%d  %s\n",
				d.Name, median(va), median(vb), d.Unit, worse*100, spr*100, d.Bound*100, len(va), len(vb), word)
			ok = ok && word == "within"
		}
	}
	return ok, nil
}
