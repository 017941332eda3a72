package runner

import (
	"encoding/json"
	"testing"

	"github.com/vanetlab/relroute/internal/metrics"
)

// FuzzJournalLoad feeds a valid header followed by arbitrary lines to the
// manifest reader: it must never panic, and every record it loads must
// encode back to a line that loads to the same record.
func FuzzJournalLoad(f *testing.F) {
	c := testCampaign()
	hash := CampaignHash(c)
	hdr, err := json.Marshal(journalHeader{Kind: "campaign", Version: journalVersion, Campaign: hash, Runs: len(c.Runs)})
	if err != nil {
		f.Fatal(err)
	}
	load := func(t *testing.T, lines []byte) map[int]journalRecord {
		j := &Journal{done: make(map[int]journalRecord)}
		if err := j.load(append(append(hdr[:len(hdr):len(hdr)], '\n'), lines...), hash, len(c.Runs), "fuzz.jsonl"); err != nil {
			t.Fatalf("valid header refused: %v", err)
		}
		return j.done
	}
	sum := metrics.Summary{Protocol: "AODV", Scenario: "highway", PDR: 0.75, DataSent: 8, Control: metrics.KindCounts{metrics.KindHello: 120, metrics.KindRREQ: 3}}
	rec, err := json.Marshal(journalRecord{Kind: "done", Index: 3, Label: "AODV/1", Summary: sum})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec)
	f.Add(append(append(rec, '\n'), rec[:len(rec)/2]...))                        // torn trailing line
	f.Add([]byte(`{"kind":"done","index":0,"summary":{"Control":{"HELLO":3}}}`)) // a version 1 record
	f.Add([]byte(`{"kind":"done","index":7,"summary":{"Control":[1,2,3,4,5,6,7,8],"PDR":-0}}`))
	f.Add([]byte(`{"kind":"done","index":8}` + "\n" + `{"kind":"nope","index":1}`))
	f.Fuzz(func(t *testing.T, lines []byte) {
		for i, rec := range load(t, lines) {
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatalf("loaded record %d does not encode: %v", i, err)
			}
			if back := load(t, line); back[i] != rec {
				t.Fatalf("record %d loads as %+v, encodes as %s, which loads as %+v", i, rec, line, back[i])
			}
		}
	})
}
