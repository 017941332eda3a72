// Command bench is the repository's macro benchmark: four workloads at
// physical vehicle densities, six gated end-to-end metrics and a per-layer
// budget taken from outside the simulator. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measuring budget of
// one pass over one workload.
const defaultSeconds = 20

// outDir receives result.json and the Chrome traces; run.sh starts the
// binary at the root of the checkout.
const outDir = "bench/out"

type options struct {
	seed    int64
	seconds int
	quick   bool
}

func (o options) scale() scale {
	if o.quick {
		return quick
	}
	return full
}

func main() {
	var o options
	name := flag.String("workload", "", "run one workload in this process (default: all, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "measuring budget per pass, seconds")
	trace := flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics with tracing off, 1 = the traced pass with per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "small worlds for smoke tests; the numbers are not comparable")
	detail := flag.String("detail", "", "with -workload: also write the full report (samples, failures) to this file")
	compare := flag.Bool("compare", false, "compare result files: -compare a.json b.json")
	pairs := flag.Int("pairs", 0, "with -compare: the files are N alternating parent/change pairs")
	selfcheck := flag.Bool("selfcheck", false, "run the end-to-end suite twice and require agreement within the bounds")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args(), *pairs)
	case *selfcheck:
		err = selfCheck(o)
	case *name != "":
		err = runOne(*name, *trace == 1, o, *detail)
	default:
		_, err = runSuite(o, true, filepath.Join(outDir, "result.json"))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("a correctness check failed")

// runOne is one pass over one workload in this process — the form the
// driver calls. The last line of standard output is the result object.
func runOne(name string, traceOn bool, o options, detail string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	budget := time.Duration(o.seconds) * time.Second
	var rep *report
	if traceOn {
		rep, err = traced(w, o.seed, o.scale(), budget, outDir)
	} else {
		rep, err = measure(w, o.seed, o.scale(), budget)
	}
	if err != nil {
		return err
	}
	for n, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.fail(1, fmt.Sprintf("%s is %v: a metric must be a number", n, m.Value))
			m.Value = 0 // JSON has no spelling for it
			rep.Metrics[n] = m
		}
	}
	rep.Correct = rep.Failed == 0
	if detail != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(detail, data, 0o644); err != nil {
			return err
		}
	}
	emit(rep)
	if !rep.Correct {
		return errIncorrect
	}
	return nil
}

// emit prints every metric by name with its unit, then the result object
// the driver reads from the last line.
func emit(rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		note := ""
		if len(m.Samples) > 0 {
			note = fmt.Sprintf("  (median of %d, IQR %.1f%%)", len(m.Samples), 100*iqrShare(m.Samples))
		}
		fmt.Printf("%-15s %-34s %14.6g %s%s\n", rep.Workload, n, m.Value, m.Unit, note)
	}
	for _, n := range []string{"wall_raw_ms_per_sim_s", "machine_slowdown"} {
		if m, ok := rep.Info[n]; ok {
			fmt.Printf("%-15s %-34s %14.6g %s  (not gated; median of %d, IQR %.1f%%)\n",
				rep.Workload, n, m.Value, m.Unit, len(m.Samples), 100*iqrShare(m.Samples))
		}
	}
	fmt.Printf("%-15s %-34s %14s\n", rep.Workload, "sim_fingerprint", rep.Fingerprint)
	fmt.Printf("%-15s %-34s %14.6g ratio  (%d of %d runs)\n", rep.Workload, "fail_rate",
		float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	for _, f := range rep.Failures {
		fmt.Printf("%-15s FAIL %s\n", rep.Workload, f)
	}
	for _, f := range rep.Warnings {
		fmt.Printf("%-15s WARN %s\n", rep.Workload, f)
	}
	last := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]metric{}}
	for n, m := range rep.Metrics {
		last.Metrics[n] = metric{Value: m.Value, Unit: m.Unit} // samples stay in -detail
	}
	line, _ := json.Marshal(last) // plain numbers and strings: cannot fail
	fmt.Println(string(line))
}

// iqrShare is the distance between the quartiles as a share of the median.
func iqrShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// environment is recorded with every result: numbers from different
// machines or core counts do not compare.
type environment struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit,omitempty"`
}

func readEnvironment() environment {
	env := environment{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	// absent outside a git checkout; the result then carries no commit
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

type workloadResult struct {
	EndToEnd *report `json:"end_to_end"`
	PerLayer *report `json:"per_layer,omitempty"`
}

type suiteResult struct {
	Env       environment                `json:"env"`
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Quick     bool                       `json:"quick,omitempty"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// runSuite runs every workload, each pass in a child process of its own so
// that peak_rss_mb belongs to one workload and no heap is inherited.
func runSuite(o options, withTrace bool, resultPath string) (*suiteResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	res := &suiteResult{Env: readEnvironment(), Seed: o.seed, Seconds: o.seconds, Quick: o.quick,
		Workloads: map[string]*workloadResult{}}
	incorrect := false
	child := func(w string, traceOn int) (*report, error) {
		detail := filepath.Join(outDir, fmt.Sprintf("%s.trace%d.json", w, traceOn))
		args := []string{"-workload", w, "-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
			"-trace", strconv.Itoa(traceOn), "-detail", detail}
		if o.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		data, err := os.ReadFile(detail)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w, errors.Join(runErr, err))
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", detail, err)
		}
		if err := os.Remove(detail); err != nil {
			return nil, err
		}
		incorrect = incorrect || !rep.Correct
		return &rep, nil
	}
	for _, w := range workloads {
		wr := &workloadResult{}
		if wr.EndToEnd, err = child(w.name, 0); err != nil {
			return nil, err
		}
		if withTrace {
			if wr.PerLayer, err = child(w.name, 1); err != nil {
				return nil, err
			}
		}
		res.Workloads[w.name] = wr
	}
	if resultPath != "" {
		data, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(resultPath, data, 0o644); err != nil {
			return nil, err
		}
		fmt.Println("wrote", resultPath)
	}
	if incorrect {
		return res, errIncorrect
	}
	return res, nil
}
