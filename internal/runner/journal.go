package runner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"github.com/vanetlab/relroute/internal/digest"
	"github.com/vanetlab/relroute/internal/metrics"
)

// journalVersion is the manifest schema version; OpenJournal rejects
// files written by an incompatible schema. Version 2 writes a summary's
// control counts as an array by packet kind, where version 1 wrote an
// object by kind name that would no longer decode.
const journalVersion = 2

// journalHeader is the first line of a manifest: it pins the campaign the
// journal belongs to, so a resume against a different run list is refused
// instead of silently mixing results.
type journalHeader struct {
	Kind     string `json:"kind"`
	Version  int    `json:"version"`
	Campaign uint64 `json:"campaign"`
	Runs     int    `json:"runs"`
}

// journalRecord is one completed run: its submission index, display
// label and full summary — everything ExecuteResumable needs to reproduce
// the Result without re-executing. An "attempts" count in an older
// journal's records is ignored.
type journalRecord struct {
	Kind    string          `json:"kind"`
	Index   int             `json:"index"`
	Label   string          `json:"label"`
	Summary metrics.Summary `json:"summary"`
}

// CampaignHash fingerprints a campaign's run list: protocol, label, and
// the JSON encoding of each run's Options with Shards zeroed (the engine
// ignores it, and journals written when it was an execution knob must
// still resume). Setup hooks cannot be hashed — callers resuming a
// campaign with hooks are responsible for passing the same hooks again.
func CampaignHash(c Campaign) uint64 {
	var buf []byte
	for _, r := range c.Runs {
		o := r.Opts
		o.Shards = 0
		js, err := json.Marshal(o)
		if err != nil {
			// Options is a plain data struct; this only fires if a future
			// field breaks that. Degrade to the fields that do encode.
			js = []byte(err.Error())
		}
		buf = append(buf, r.Protocol...)
		buf = append(buf, 0)
		buf = append(buf, r.Label...)
		buf = append(buf, 0)
		buf = append(buf, js...)
		buf = append(buf, 0)
	}
	return digest.Sum64(buf)
}

// Journal is a durable campaign manifest: an append-only JSONL file whose
// first line identifies the campaign and whose subsequent lines each
// record one completed run. Every record is flushed and fsynced before
// the worker that produced it moves on, so after a crash or Ctrl-C the
// manifest names exactly the runs whose results are safe to reuse.
// Failed runs are never recorded — a resume retries them.
//
// Journal is safe for concurrent use by the pool's workers.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	done map[int]journalRecord
	err  error
}

// OpenJournal opens (or creates) the manifest at path for the given
// campaign. An existing file must carry the same campaign fingerprint
// and run count — a mismatch is an error, not a silent restart — and its
// completed records are loaded for ExecuteResumable to skip. A partially
// written trailing line (torn by a crash mid-append) is ignored.
func OpenJournal(path string, c Campaign) (*Journal, error) {
	hash := CampaignHash(c)
	j := &Journal{done: make(map[int]journalRecord)}
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := j.load(raw, hash, len(c.Runs), path); err != nil {
			return nil, err
		}
	case os.IsNotExist(err):
		// fresh manifest
	default:
		return nil, fmt.Errorf("runner: open journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: open journal: %w", err)
	}
	j.f = f
	if len(raw) == 0 {
		hdr, _ := json.Marshal(journalHeader{Kind: "campaign", Version: journalVersion, Campaign: hash, Runs: len(c.Runs)})
		if err := j.append(hdr); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// load parses an existing manifest and validates it against the campaign.
func (j *Journal) load(raw []byte, hash uint64, runs int, path string) error {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if first {
			first = false
			var hdr journalHeader
			if err := json.Unmarshal(line, &hdr); err != nil || hdr.Kind != "campaign" {
				return fmt.Errorf("runner: %s is not a campaign journal", path)
			}
			if hdr.Version != journalVersion {
				return fmt.Errorf("runner: journal %s has version %d, this build reads %d", path, hdr.Version, journalVersion)
			}
			if hdr.Campaign != hash || hdr.Runs != runs {
				return fmt.Errorf("runner: journal %s records a different campaign (fingerprint %#x over %d runs, want %#x over %d)",
					path, hdr.Campaign, hdr.Runs, hash, runs)
			}
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			continue // torn trailing line from a crash mid-append
		}
		if rec.Kind == "done" && rec.Index >= 0 && rec.Index < runs {
			j.done[rec.Index] = rec
		}
	}
	if first {
		return fmt.Errorf("runner: %s is not a campaign journal", path)
	}
	return nil
}

// Completed reports whether run i is already recorded, reconstructing its
// Result (with only Run.Label populated inside Run) when it is.
func (j *Journal) Completed(i int) (Result, bool) {
	j.mu.Lock()
	rec, ok := j.done[i]
	j.mu.Unlock()
	if !ok {
		return Result{}, false
	}
	return Result{Run: Run{Label: rec.Label}, Summary: rec.Summary}, true
}

// Record appends run i's successful result and syncs the file. Write
// errors are sticky and surfaced by Close — a journaling failure must not
// fail the run that produced the result.
func (j *Journal) Record(i int, res Result) {
	rec := journalRecord{Kind: "done", Index: i, Label: res.Run.Label, Summary: res.Summary}
	line, err := json.Marshal(rec)
	if err != nil {
		j.mu.Lock()
		if j.err == nil {
			j.err = fmt.Errorf("runner: journal encode: %w", err)
		}
		j.mu.Unlock()
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done[i] = rec
	if err := j.appendLocked(line); err != nil && j.err == nil {
		j.err = err
	}
}

func (j *Journal) append(line []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(line)
}

func (j *Journal) appendLocked(line []byte) error {
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("runner: journal write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("runner: journal sync: %w", err)
	}
	return nil
}

// Close closes the manifest and returns the first write error, if any.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.err
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}
