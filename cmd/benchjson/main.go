// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark report, so CI can archive machine-readable performance
// trajectories (BENCH_core.json) and future PRs can diff them — and
// compares two such reports as a regression gate.
//
// Usage:
//
//	go test -bench 'Engine|ScaleVehicles' -benchmem -benchtime=1x . | benchjson -o BENCH_core.json
//	benchjson -compare old.json new.json -threshold 0.15
//
// In -compare mode the two positional arguments are the baseline and the
// candidate report; the command prints a per-benchmark delta table and
// exits non-zero when any shared benchmark's ns/op grew by more than the
// threshold fraction (default 0.15). CI runs it against the committed
// BENCH_core.json so perf regressions fail the bench job instead of
// hiding in artifact diffs.
//
// Lines that are not benchmark results (PASS, ok, goos, ...) are captured
// as environment metadata where recognised and otherwise ignored.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line. Pkg is the package whose `pkg:`
// header preceded it: one `go test -bench` run over several packages
// prints one header per package, so the label belongs to the row.
type Result struct {
	Name        string             `json:"name"`
	Pkg         string             `json:"pkg,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the emitted document. Baseline is not produced by parsing —
// committed reports may carry the pre-optimization numbers there so a
// single file records the before/after pair.
type Report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
	Baseline   []Result `json:"baseline,omitempty"`
}

func main() {
	fs := flag.NewFlagSet("benchjson", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	compare := fs.Bool("compare", false, "compare two report files (baseline, candidate) instead of parsing stdin")
	threshold := fs.Float64("threshold", 0.15, "allowed fractional ns/op growth in -compare mode")
	files := parseArgs(fs, os.Args[1:])

	if *compare {
		if len(files) != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two report files (baseline, candidate)")
			os.Exit(2)
		}
		regressed, err := runCompare(files[0], files[1], *threshold, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseArgs parses flags and positional file arguments in any interleaving
// (the standard flag package stops at the first positional), so the
// documented `-compare old.json new.json -threshold 0.15` works verbatim.
func parseArgs(fs *flag.FlagSet, args []string) []string {
	var files []string
	for {
		fs.Parse(args)
		args = fs.Args()
		took := 0
		for took < len(args) && !strings.HasPrefix(args[took], "-") {
			files = append(files, args[took])
			took++
		}
		if took == len(args) {
			return files
		}
		args = args[took:]
	}
}

// readReport loads a report JSON file.
func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// runCompare diffs candidate against baseline and reports whether any
// shared benchmark's ns/op grew by more than threshold. Benchmarks present
// in only one report are listed but never fail the gate (new scale points
// must be addable without a baseline).
func runCompare(basePath, candPath string, threshold float64, w io.Writer) (regressed bool, err error) {
	base, err := readReport(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readReport(candPath)
	if err != nil {
		return false, err
	}
	baseline := make(map[string]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseline[r.Name] = r
	}
	fmt.Fprintf(w, "benchjson compare: %s → %s (threshold %+.0f%% ns/op)\n", basePath, candPath, threshold*100)
	seen := make(map[string]bool, len(cand.Benchmarks))
	for _, r := range cand.Benchmarks {
		seen[r.Name] = true
		old, ok := baseline[r.Name]
		if !ok {
			fmt.Fprintf(w, "  %-28s %12.0f ns/op  (no baseline)\n", r.Name, r.NsPerOp)
			continue
		}
		if old.NsPerOp <= 0 {
			fmt.Fprintf(w, "  %-28s %12.0f ns/op  (zero baseline)\n", r.Name, r.NsPerOp)
			continue
		}
		delta := (r.NsPerOp - old.NsPerOp) / old.NsPerOp
		verdict := "ok"
		if delta > threshold {
			verdict = "REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "  %-28s %12.0f → %12.0f ns/op  %+6.1f%%  %s\n",
			r.Name, old.NsPerOp, r.NsPerOp, delta*100, verdict)
	}
	for _, r := range base.Benchmarks {
		if !seen[r.Name] {
			fmt.Fprintf(w, "  %-28s missing from candidate\n", r.Name)
		}
	}
	return regressed, nil
}

func parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{Benchmarks: []Result{}}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseBench(line)
			if ok {
				r.Pkg = pkg
				rep.Benchmarks = append(rep.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// parseBench parses one result line, e.g.
//
//	BenchmarkScaleVehicles/200-8  5  72451549 ns/op  16805897 B/op  184829 allocs/op  0.95 PDR
func parseBench(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	// strip the trailing -GOMAXPROCS suffix
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}
