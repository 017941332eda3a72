package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// gate is one end-to-end metric of BENCHMARK.json: the direction that is
// better and the share of the base value by which it may worsen.
type gate struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// gatesFile holds the bounds; run.sh starts the binary at the root of the
// checkout.
const gatesFile = "BENCHMARK.json"

func loadGates() ([]gate, error) {
	data, err := os.ReadFile(gatesFile)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []gate `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", gatesFile, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", gatesFile)
	}
	return spec.EndToEnd, nil
}

// allowed is the share of base by which the metric may read worse.
// BENCHMARK.json's bounds have to hold across ten different seeds, which are
// ten different worlds. Between results of one seed the simulation repeats —
// allocation counts to four digits, pdr exactly — so there the metrics a seed
// determines are held to what the numbers support: pdr to 0.005 absolute,
// allocations to 2 %. exact reports that such a bound applies: the value then
// stands for itself, and the spread of the repetitions behind it (different
// worlds, for a replicated workload) is not measurement noise.
func (g gate) allowed(base float64, sameSeed bool) (bound float64, exact bool) {
	if sameSeed && base != 0 {
		switch g.Name {
		case "pdr":
			return 0.005 / math.Abs(base), true
		case "allocs_per_sim_s", "alloc_kb_per_sim_s":
			return 0.02, true
		}
	}
	return g.Bound, false
}

// worsening is how much worse v is than base, as a share of base; negative
// when v is better.
func (g gate) worsening(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	if g.Better == "higher" {
		return (base - v) / base
	}
	return (v - base) / base
}

func loadResult(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res suiteResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

func (r *suiteResult) endToEnd(workload, name string) (metric, bool) {
	wr := r.Workloads[workload]
	if wr == nil || wr.EndToEnd == nil {
		return metric{}, false
	}
	m, ok := wr.EndToEnd.Metrics[name]
	return m, ok
}

func (r *suiteResult) fingerprint(workload string) string {
	if wr := r.Workloads[workload]; wr != nil && wr.EndToEnd != nil {
		return wr.EndToEnd.Fingerprint
	}
	return ""
}

// allBetter reports whether every sample of b reads better than every
// sample of a.
func (g gate) allBetter(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if g.Better == "higher" {
		return quantile(b, 0) > quantile(a, 1)
	}
	return quantile(b, 1) < quantile(a, 0)
}

// failedRuns sums a workload's failed and attempted runs over result files.
func failedRuns(results []*suiteResult, workload string) (failed, attempted int) {
	for _, r := range results {
		if wr := r.Workloads[workload]; wr != nil && wr.EndToEnd != nil {
			failed += wr.EndToEnd.Failed
			attempted += wr.EndToEnd.Attempted
		}
	}
	return failed, attempted
}

func compareFiles(files []string, pairs int) error {
	gates, err := loadGates()
	if err != nil {
		return err
	}
	if pairs > 0 {
		if len(files) != 2*pairs {
			return fmt.Errorf("-pairs %d needs %d result files (parent change parent change ...), got %d", pairs, 2*pairs, len(files))
		}
	} else if len(files) != 2 {
		return fmt.Errorf("-compare needs two result files, got %d", len(files))
	}
	var parents, changes []*suiteResult
	sameSeed := true
	for i := 0; i < len(files); i += 2 {
		a, err := loadResult(files[i])
		if err != nil {
			return err
		}
		b, err := loadResult(files[i+1])
		if err != nil {
			return err
		}
		parents, changes = append(parents, a), append(changes, b)
		sameSeed = sameSeed && a.Seed == b.Seed
	}
	regressed := false
	for _, w := range workloads {
		// a change that fails more runs has regressed, whatever its speed
		pf, pn := failedRuns(parents, w.name)
		cf, cn := failedRuns(changes, w.name)
		moreFail := pn == 0 || cn == 0 || float64(cf)/float64(cn) > float64(pf)/float64(pn)
		verdict := "no more than the parent"
		if moreFail {
			verdict, regressed = "REGRESSED", true
		}
		fmt.Printf("%-15s %-19s parent %d of %d  change %d of %d  %s\n", w.name, "failed runs", pf, pn, cf, cn, verdict)
		if sameSeed {
			verdict = "identical: simulated behaviour unchanged"
			for i := range parents {
				if parents[i].fingerprint(w.name) != changes[i].fingerprint(w.name) {
					verdict = "CHANGED: simulated behaviour differs (not a gate; a speed-only change must not)"
				}
			}
			fmt.Printf("%-15s %-19s %s\n", w.name, "sim_fingerprint", verdict)
		}
		for _, g := range gates {
			var parent, change []float64
			var spreadA, spreadB []float64 // one file each: the repetitions behind the medians
			for i := range parents {
				a, okA := parents[i].endToEnd(w.name, g.Name)
				b, okB := changes[i].endToEnd(w.name, g.Name)
				if !okA || !okB {
					return fmt.Errorf("%s/%s missing from %s or %s", w.name, g.Name, files[2*i], files[2*i+1])
				}
				parent, change = append(parent, a.Value), append(change, b.Value)
				spreadA, spreadB = a.Samples, b.Samples
			}
			bound, exact := g.allowed(median(parent), sameSeed)
			if pairs == 0 && !exact {
				parent, change = spreadOr(spreadA, parent), spreadOr(spreadB, change)
			}
			pa, ch := median(parent), median(change)
			v := g.judge(parent, change, bound, pairs > 0 && !moreFail)
			regressed = regressed || v == "REGRESSED"
			fmt.Printf("%-15s %-19s parent %12.6g  change %12.6g %-5s change/parent %.4f (base %.6g)  parent IQR %.1f%%  bound %.2f%%  %s\n",
				w.name, g.Name, pa, ch, g.Unit, ch/pa, pa, 100*iqrShare(parent), 100*bound, v)
		}
	}
	if !sameSeed {
		fmt.Println("the two sides ran different seeds: BENCHMARK.json's cross-seed bounds apply; run both on one seed for the tight pdr and allocation bounds")
	}
	if regressed {
		return fmt.Errorf("the change regressed: a metric beyond its bound, or more failed runs")
	}
	return nil
}

// spreadOr prefers the repetitions recorded behind a value; a metric read
// once per run (peak_rss_mb, pdr) has none.
func spreadOr(samples, values []float64) []float64 {
	if len(samples) > 0 {
		return samples
	}
	return values
}

// judge applies the measurement rules: a regression is a median worse than
// the parent's by more than bound, a share of the parent's median; where the parent's own spread is
// wider than the bound the metric is unresolved rather than unchanged,
// unless every change run beats every parent run; a gain needs, over
// paired runs, wins in at least nine tenths of the pairs and a median gap
// wider than the parent's interquartile range.
func (g gate) judge(parent, change []float64, bound float64, paired bool) string {
	pa, ch := median(parent), median(change)
	if g.worsening(pa, ch) > bound {
		return "REGRESSED"
	}
	iqr := quantile(parent, 0.75) - quantile(parent, 0.25)
	if paired {
		wins := 0
		for i := range parent {
			if g.worsening(parent[i], change[i]) < 0 {
				wins++
			}
		}
		if 10*wins >= 9*len(parent) && math.Abs(ch-pa) > iqr {
			return fmt.Sprintf("GAIN (%d/%d pairs)", wins, len(parent))
		}
	}
	if pa != 0 && iqr/math.Abs(pa) > bound && !g.allBetter(parent, change) {
		return "unresolved (spread exceeds bound)"
	}
	return "within bound"
}

// selfCheck runs the end-to-end suite twice on this binary and seed. Two
// runs of the same code must agree within every bound, or the bounds cannot
// gate anything; a workload whose repetitions spread more than 10 % is noisy.
func selfCheck(o options) error {
	gates, err := loadGates()
	if err != nil {
		return err
	}
	var res [2]*suiteResult
	for i := range res {
		if res[i], err = runSuite(o, false, ""); err != nil {
			return err
		}
	}
	disagree := 0
	for _, w := range workloads {
		for _, g := range gates {
			a, _ := res[0].endToEnd(w.name, g.Name)
			b, _ := res[1].endToEnd(w.name, g.Name)
			gap := math.Abs(g.worsening(a.Value, b.Value))
			bound, _ := g.allowed(a.Value, true)
			verdict := "agree"
			if gap > bound {
				verdict = "DISAGREE"
				disagree++
			}
			note := ""
			if g.Name == "wall_ms_per_sim_s" && max(iqrShare(a.Samples), iqrShare(b.Samples)) > 0.10 {
				note = "  noisy: repetition IQR above 10% of the median"
			}
			fmt.Printf("%-15s %-19s first %12.6g  second %12.6g %-5s gap %.2f%% of first  bound %.2f%%  %s%s\n",
				w.name, g.Name, a.Value, b.Value, g.Unit, 100*gap, 100*bound, verdict, note)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d metrics disagree between two runs of the same binary", disagree)
	}
	return nil
}
