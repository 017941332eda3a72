package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: github.com/vanetlab/relroute
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkScaleVehicles/200-8         	       5	  72451549 ns/op	16805897 B/op	  184829 allocs/op
BenchmarkEngine-8                    	       5	     41467 ns/op	   24009 B/op	     500 allocs/op
BenchmarkProtocolHighway/Greedy-8    	       1	  12345678 ns/op	         0.82 PDR
PASS
ok  	github.com/vanetlab/relroute	1.298s
`

func TestParse(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Fatalf("environment not captured: %+v", rep)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "ScaleVehicles/200" {
		t.Fatalf("name = %q (GOMAXPROCS suffix should be stripped)", b.Name)
	}
	if b.Iterations != 5 || b.NsPerOp != 72451549 || b.BytesPerOp != 16805897 || b.AllocsPerOp != 184829 {
		t.Fatalf("values not parsed: %+v", b)
	}
	if got := rep.Benchmarks[2].Metrics["PDR"]; got != 0.82 {
		t.Fatalf("custom metric PDR = %v, want 0.82", got)
	}
}

// One `go test -bench` run over two packages prints a pkg: header before
// each package's rows; every row must keep its own package's label.
func TestParseLabelsRowsPerPackage(t *testing.T) {
	const twoPkgs = `goos: linux
pkg: github.com/vanetlab/relroute/internal/linkstate
BenchmarkMonitorUpdate-2   	  500000	       111.5 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	github.com/vanetlab/relroute/internal/linkstate	1.9s
pkg: github.com/vanetlab/relroute/internal/radio
BenchmarkRebuildSweep-2    	     100	   3100000 ns/op
BenchmarkLinks-2           	     100	        12.0 ns/op
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(twoPkgs)))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"github.com/vanetlab/relroute/internal/linkstate",
		"github.com/vanetlab/relroute/internal/radio",
		"github.com/vanetlab/relroute/internal/radio",
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d", len(rep.Benchmarks), len(want))
	}
	for i, b := range rep.Benchmarks {
		if b.Pkg != want[i] {
			t.Errorf("%s labelled %q, want %q", b.Name, b.Pkg, want[i])
		}
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader("BenchmarkBroken\nnonsense line\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("parsed %d benchmarks from garbage, want 0", len(rep.Benchmarks))
	}
}

func writeReport(t *testing.T, dir, name string, rep *Report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", &Report{Benchmarks: []Result{
		{Name: "ScaleVehicles/200", NsPerOp: 100},
		{Name: "Engine", NsPerOp: 50},
		{Name: "Retired", NsPerOp: 10},
	}})
	within := writeReport(t, dir, "within.json", &Report{Benchmarks: []Result{
		{Name: "ScaleVehicles/200", NsPerOp: 110},  // +10%: inside the gate
		{Name: "Engine", NsPerOp: 40},              // improvement
		{Name: "ScaleVehicles/1000", NsPerOp: 999}, // new point, no baseline
	}})
	regressed, err := runCompare(old, within, 0.15, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatal("+10% flagged as regression at threshold 0.15")
	}

	bad := writeReport(t, dir, "bad.json", &Report{Benchmarks: []Result{
		{Name: "ScaleVehicles/200", NsPerOp: 120}, // +20%
		{Name: "Engine", NsPerOp: 50},
	}})
	regressed, err = runCompare(old, bad, 0.15, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatal("+20% not flagged at threshold 0.15")
	}
}

func TestCompareBadFile(t *testing.T) {
	if _, err := runCompare("does-not-exist.json", "also-missing.json", 0.15, io.Discard); err == nil {
		t.Fatal("missing baseline file accepted")
	}
}

func TestParseArgsInterleaved(t *testing.T) {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	compare := fs.Bool("compare", false, "")
	threshold := fs.Float64("threshold", 0.15, "")
	files := parseArgs(fs, []string{"-compare", "old.json", "new.json", "-threshold", "0.3"})
	if !*compare || *threshold != 0.3 {
		t.Fatalf("flags not parsed: compare=%v threshold=%v", *compare, *threshold)
	}
	if len(files) != 2 || files[0] != "old.json" || files[1] != "new.json" {
		t.Fatalf("files = %v", files)
	}
}
