package runner

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vanetlab/relroute/internal/scenario"
	"github.com/vanetlab/relroute/internal/sim"
)

// TestTimedOutRunNamesWhereItStopped wedges a run at t=6 and checks that
// the timed-out run's error says where its engine stopped — simulated time
// and event count — and that the run was built once, not run again.
func TestTimedOutRunNamesWhereItStopped(t *testing.T) {
	var builds atomic.Int64
	var c Campaign
	c.Add(Run{Protocol: "Greedy", Opts: quickOpts(1), Setup: func(sc *scenario.Scenario) {
		builds.Add(1)
		eng := sc.World.Engine()
		var spin func()
		spin = func() { eng.After(0, spin) }
		eng.After(6, spin)
	}})
	results := Pool{Workers: 1, Timeout: 200 * time.Millisecond}.Execute(c)

	if results[0].Err == nil {
		t.Fatal("wedged run reported success")
	}
	if !errors.Is(results[0].Err, sim.ErrInterrupted) {
		t.Fatalf("err = %v, want wrapped sim.ErrInterrupted", results[0].Err)
	}
	if !regexp.MustCompile(`timed out after 200ms at t=6\.00s, [1-9][0-9]* events`).MatchString(results[0].Err.Error()) {
		t.Fatalf("err = %v, want it to name the timeout, t=6.00s and the event count", results[0].Err)
	}
	if builds.Load() != 1 {
		t.Fatalf("scenario built %d times, want 1", builds.Load())
	}
}

// TestJournalResumeSkipsCompleted: a finished campaign resumed against its
// journal re-executes nothing and reproduces the recorded summaries
// exactly.
func TestJournalResumeSkipsCompleted(t *testing.T) {
	c := testCampaign()
	path := filepath.Join(t.TempDir(), "campaign.jsonl")

	j, err := OpenJournal(path, c)
	if err != nil {
		t.Fatal(err)
	}
	first := Pool{Workers: 4}.ExecuteResumable(context.Background(), c, j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := Summaries(first)
	if err != nil {
		t.Fatal(err)
	}

	// Resume in a "fresh process": reopen the journal and re-execute,
	// counting the runs that actually execute.
	var executed atomic.Int64
	c2 := testCampaign()
	for i := range c2.Runs {
		c2.Runs[i].Setup = func(*scenario.Scenario) { executed.Add(1) }
	}
	j2, err := OpenJournal(path, c2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c2.Runs) - len(j2.done); got != 0 {
		t.Fatalf("journal reports %d remaining runs, want 0", got)
	}
	second := Pool{Workers: 4}.ExecuteResumable(context.Background(), c2, j2)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 0 {
		t.Fatalf("resume re-executed %d completed runs", executed.Load())
	}
	got, err := Summaries(second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("journal-reconstructed summaries diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestJournalResumeCompletesRemainder: a campaign killed partway (here:
// one run fails, so it is never journaled) finishes the remainder on
// resume without touching the finished runs, and the merged table equals
// a clean run's.
func TestJournalResumeCompletesRemainder(t *testing.T) {
	mk := func(failFirst bool) Campaign {
		var c Campaign
		c.Add(Run{Protocol: "Greedy", Opts: quickOpts(1)})
		run2 := Run{Protocol: "AODV", Opts: quickOpts(2)}
		if failFirst {
			run2.Setup = func(*scenario.Scenario) { panic("simulated crash") }
		}
		c.Add(run2)
		return c
	}
	want, err := Summaries(Execute(mk(false), 1))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	j, err := OpenJournal(path, mk(true))
	if err != nil {
		t.Fatal(err)
	}
	interrupted := Pool{Workers: 1}.ExecuteResumable(context.Background(), mk(true), j)
	j.Close()
	if interrupted[0].Err != nil || interrupted[1].Err == nil {
		t.Fatalf("setup: want run 0 ok, run 1 failed; got %v / %v", interrupted[0].Err, interrupted[1].Err)
	}

	// Setup hooks are not part of the campaign fingerprint, so the
	// "restarted process" opens the same journal with the crash removed.
	var executed atomic.Int64
	c2 := mk(false)
	first := c2.Runs[0].Setup
	c2.Runs[0].Setup = func(sc *scenario.Scenario) {
		executed.Add(1)
		if first != nil {
			first(sc)
		}
	}
	j2, err := OpenJournal(path, c2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c2.Runs) - len(j2.done); got != 1 {
		t.Fatalf("journal reports %d remaining runs, want 1", got)
	}
	resumed := Pool{Workers: 1}.ExecuteResumable(context.Background(), c2, j2)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 0 {
		t.Fatal("resume re-executed the already-journaled run")
	}
	got, err := Summaries(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed campaign table diverged from clean run:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestJournalWrittenWithShardsResumes: journals written while Shards was an
// execution knob belong to campaigns whose Options carried it. The field
// is ignored and CampaignHash zeroes it, so the same campaign without it
// adopts such a journal, executes nothing, and reproduces a clean run's
// table.
func TestJournalWrittenWithShardsResumes(t *testing.T) {
	want, err := Summaries(Execute(testCampaign(), 2))
	if err != nil {
		t.Fatal(err)
	}
	old := testCampaign()
	for i := range old.Runs {
		old.Runs[i].Opts.Shards = 4
	}
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	j, err := OpenJournal(path, old)
	if err != nil {
		t.Fatal(err)
	}
	Pool{Workers: 2}.ExecuteResumable(context.Background(), old, j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	c := testCampaign()
	j2, err := OpenJournal(path, c)
	if err != nil {
		t.Fatalf("journal of the Shards=4 campaign rejected: %v", err)
	}
	if left := len(c.Runs) - len(j2.done); left != 0 {
		t.Fatalf("resume would re-execute %d journaled runs", left)
	}
	resumed := Pool{Workers: 2}.ExecuteResumable(context.Background(), c, j2)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Summaries(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Shards=4 journal resumed to a different table:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestJournalRejectsForeignCampaign: resuming a journal against a
// different run list must fail loudly, never silently mix results.
func TestJournalRejectsForeignCampaign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	j, err := OpenJournal(path, testCampaign())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	var other Campaign
	other.Add(Run{Protocol: "Greedy", Opts: quickOpts(99)})
	if _, err := OpenJournal(path, other); err == nil {
		t.Fatal("journal accepted a different campaign")
	}

	if err := os.WriteFile(path, []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, testCampaign()); err == nil {
		t.Fatal("journal accepted a non-journal file")
	}
}

// TestExecuteContextCancellation: a cancelled context fails pending runs
// immediately and interrupts in-flight ones.
func TestExecuteContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := Pool{Workers: 2}.ExecuteContext(ctx, testCampaign())
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("run %d executed under a cancelled context", i)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("run %d err = %v, want context.Canceled", i, r.Err)
		}
	}

	// Mid-run cancellation: wedge the engine, cancel shortly after, and
	// expect an interrupt attributed to the campaign.
	var c Campaign
	c.Add(Run{Protocol: "Greedy", Opts: quickOpts(1), Setup: func(sc *scenario.Scenario) {
		eng := sc.World.Engine()
		var spin func()
		spin = func() { eng.After(0, spin) }
		eng.After(0, spin)
	}})
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel2()
	}()
	results = Pool{Workers: 1}.ExecuteContext(ctx2, c)
	if !errors.Is(results[0].Err, sim.ErrInterrupted) {
		t.Fatalf("err = %v, want wrapped sim.ErrInterrupted", results[0].Err)
	}
	if !strings.Contains(results[0].Err.Error(), "campaign cancelled") {
		t.Fatalf("err = %v, want the interrupt attributed to the campaign", results[0].Err)
	}
}
