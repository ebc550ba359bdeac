package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// record is one line of a -record file: a run's result and what ran.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) and
// statistics.median do (the "exclusive" method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// runCompare prints, per workload and end-to-end metric, the parent's
// and the change's median and quartiles and a verdict under the
// metric's bound. It reports whether any metric regressed.
//
// A verdict is "regression" when the change's median is worse than the
// parent's by more than the bound; "unresolved" when the parent's own
// spread (quartile distance over median) exceeds the bound, unless
// every change run beats every parent run; "gain" when the change wins
// at least 9 of every 10 seed-matched pairs and the medians differ by
// more than the parent's quartile distance; "worse" when the parent
// wins by that same rule, a slowdown the runs resolve but the bound
// allows; "same" otherwise.
func runCompare(w io.Writer, specPath, parentPath, changePath string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-12s %-15s %-34s %-34s %8s %6s %7s %7s %5s  %s\n",
		"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "worse", "bound", "spreadP", "spreadC", "wins", "verdict")
	regressed := false
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			p, c := values(parent, wl.Name, m.Name), values(change, wl.Name, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := verdictFor(m, p, c)
			if v.verdict == "regression" {
				regressed = true
			}
			fmt.Fprintf(w, "%-12s %-15s %-34s %-34s %+7.2f%% %5.0f%% %6.2f%% %6.2f%% %5s  %s\n",
				wl.Name, m.Name, quartileText(p), quartileText(c), 100*v.worse, 100*m.Bound,
				100*v.spreadP, 100*v.spreadC, fmt.Sprintf("%d/%d", v.wins, v.pairs), v.verdict)
		}
	}
	return regressed, nil
}

// seedValue is one run's value of a metric.
type seedValue struct {
	seed int64
	v    float64
}

func values(recs []record, workload, metric string) []seedValue {
	var out []seedValue
	for _, r := range recs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, seedValue{r.Seed, m.Value})
		}
	}
	return out
}

func plain(vs []seedValue) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v.v
	}
	return out
}

func quartileText(vs []seedValue) string {
	q1, med, q3 := quartiles(plain(vs))
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", med, q1, q3, len(vs))
}

type verdict struct {
	worse            float64 // change median against parent median, positive when worse
	spreadP, spreadC float64 // quartile distance over median
	wins, pairs      int
	verdict          string
}

func verdictFor(m boundedMetric, p, c []seedValue) verdict {
	// better(a, b) is true when a beats b on this metric.
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pq1, pmed, pq3 := quartiles(plain(p))
	cq1, cmed, cq3 := quartiles(plain(c))
	v := verdict{worse: (cmed - pmed) / pmed, spreadP: (pq3 - pq1) / pmed, spreadC: (cq3 - cq1) / cmed}
	if m.Better == "higher" {
		v.worse = -v.worse
	}
	bySeed := map[int64]float64{}
	for _, x := range p {
		bySeed[x.seed] = x.v
	}
	losses := 0
	for _, x := range c {
		if pv, ok := bySeed[x.seed]; ok {
			v.pairs++
			if better(x.v, pv) {
				v.wins++
			}
			if better(pv, x.v) {
				losses++
			}
		}
	}
	resolved := func(n int) bool { return v.pairs > 0 && 10*n >= 9*v.pairs && math.Abs(cmed-pmed) > pq3-pq1 }
	allBetter := true
	for _, x := range c {
		for _, y := range p {
			allBetter = allBetter && better(x.v, y.v)
		}
	}
	switch {
	case v.spreadP > m.Bound && !allBetter:
		v.verdict = "unresolved"
	case v.worse > m.Bound:
		v.verdict = "regression"
	case resolved(v.wins) && better(cmed, pmed):
		v.verdict = "gain"
	case resolved(losses) && better(pmed, cmed):
		v.verdict = "worse"
	default:
		v.verdict = "same"
	}
	return v
}
