package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeJournal builds a journal file from raw lines (no framing help).
func writeJournal(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), JournalName)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// appendRecords opens a journal and appends records through the real
// framing path.
func appendRecords(t *testing.T, path string, recs ...JournalRecord) {
	t.Helper()
	j, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalAppendRecoverRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	spec := json.RawMessage(`{"workload":"blackscholes"}`)
	appendRecords(t, path,
		JournalRecord{ID: "job-000001", State: "queued", Key: "k1", Spec: spec},
		JournalRecord{ID: "job-000001", State: "running", Attempt: 0},
		JournalRecord{ID: "job-000002", State: "queued", Key: "k2", Spec: spec},
		JournalRecord{ID: "job-000001", State: "done", CacheHit: true},
	)
	rec, err := RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Quarantined) != 0 {
		t.Fatalf("clean journal quarantined %d records: %+v", len(rec.Quarantined), rec.Quarantined)
	}
	if rec.Records != 4 || rec.Duplicates != 0 || rec.MaxSeq != 4 {
		t.Fatalf("records %d dups %d maxseq %d, want 4/0/4", rec.Records, rec.Duplicates, rec.MaxSeq)
	}
	if len(rec.Jobs) != 2 {
		t.Fatalf("jobs %d, want 2", len(rec.Jobs))
	}
	j1, j2 := rec.Jobs[0], rec.Jobs[1]
	if j1.ID != "job-000001" || j1.State != "done" || !j1.CacheHit || j1.Key != "k1" {
		t.Fatalf("job 1 folded wrong: %+v", j1)
	}
	if string(j1.Spec) != string(spec) {
		t.Fatalf("job 1 lost its spec: %q", j1.Spec)
	}
	if j2.ID != "job-000002" || j2.State != "queued" {
		t.Fatalf("job 2 folded wrong: %+v", j2)
	}
	nt := rec.NonTerminal()
	if len(nt) != 1 || nt[0].ID != "job-000002" {
		t.Fatalf("non-terminal %+v, want just job-000002", nt)
	}
}

func TestJournalSequenceContinuesAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	appendRecords(t, path, JournalRecord{ID: "job-000001", State: "queued"})
	rec, err := RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, rec.MaxSeq)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{ID: "job-000001", State: "running"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	rec2, err := RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.MaxSeq != 2 || rec2.Records != 2 {
		t.Fatalf("maxseq %d records %d, want 2/2", rec2.MaxSeq, rec2.Records)
	}
}

func TestRecoverJournalMissingFile(t *testing.T) {
	rec, err := RecoverJournal(filepath.Join(t.TempDir(), "absent.numadlog"))
	if err != nil {
		t.Fatalf("missing journal must be an empty recovery, got %v", err)
	}
	if len(rec.Jobs) != 0 || len(rec.Quarantined) != 0 {
		t.Fatalf("missing journal not empty: %+v", rec)
	}
}

// frame produces one correctly framed journal line.
func frame(rec JournalRecord) string {
	body, _ := json.Marshal(&rec)
	return frameRaw(string(body))
}

func frameRaw(body string) string {
	return fmt.Sprintf("%08x %s", crc32IEEE(body), body)
}

func crc32IEEE(s string) uint32 {
	// Local mirror of the framing checksum, so the tests cannot drift
	// from the implementation silently.
	const poly = 0xedb88320
	crc := ^uint32(0)
	for i := 0; i < len(s); i++ {
		crc ^= uint32(s[i])
		for b := 0; b < 8; b++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

// TestRecoverJournalCorruptionTable: every damage class quarantines the
// damaged line, keeps replaying the rest, and never panics.
func TestRecoverJournalCorruptionTable(t *testing.T) {
	good1 := frame(JournalRecord{Seq: 1, ID: "job-000001", State: "queued", Key: "k1"})
	good2 := frame(JournalRecord{Seq: 2, ID: "job-000001", State: "done"})
	good3 := frame(JournalRecord{Seq: 3, ID: "job-000002", State: "queued", Key: "k2"})
	cases := []struct {
		name        string
		lines       []string
		wantJobs    int
		wantState   string
		wantQuar    int
		wantReasons []string
	}{
		{
			name:     "truncated tail record",
			lines:    []string{"numadlog v1", good1, good2, good3[:len(good3)/2]},
			wantJobs: 1, wantState: "done", wantQuar: 1,
			wantReasons: []string{"crc-mismatch", "bad-frame"},
		},
		{
			name:     "crc mismatch on a middle record",
			lines:    []string{"numadlog v1", strings.Replace(good1, "job-000001", "job-0000x1", 1), good2},
			wantJobs: 1, wantState: "done", wantQuar: 1,
			wantReasons: []string{"crc-mismatch"},
		},
		{
			name:     "frame without checksum",
			lines:    []string{"numadlog v1", "{\"id\":\"job-000009\",\"state\":\"queued\"}", good1, good2},
			wantJobs: 1, wantState: "done", wantQuar: 1,
			wantReasons: []string{"bad-frame"},
		},
		{
			name: "valid frame, invalid state name",
			lines: []string{"numadlog v1",
				frameRaw(`{"seq":1,"id":"job-000003","state":"exploded"}`), good1, good2},
			wantJobs: 1, wantState: "done", wantQuar: 1,
			wantReasons: []string{"bad-state"},
		},
		{
			name: "valid frame, garbage json",
			lines: []string{"numadlog v1",
				frameRaw(`{"seq":1,`), good1, good2},
			wantJobs: 1, wantState: "done", wantQuar: 1,
			wantReasons: []string{"bad-json"},
		},
		{
			name:     "destroyed header still replays records",
			lines:    []string{"n0madl0g vX", good1, good2},
			wantJobs: 1, wantState: "done", wantQuar: 1,
			wantReasons: []string{"bad-frame"},
		},
		{
			name:     "binary garbage between records",
			lines:    []string{"numadlog v1", good1, "\x00\xff\x13garbage\x7f", good2},
			wantJobs: 1, wantState: "done", wantQuar: 1,
			wantReasons: []string{"bad-frame", "crc-mismatch"},
		},
		{
			// Older releases journaled mid-cell checkpoint pointers as
			// "ckpt" records; their frames must still fail cleanly.
			name: "truncated ckpt frame",
			lines: func() []string {
				ckpt := frameRaw(`{"seq":2,"id":"job-000001","state":"ckpt","ckpt_cell":"cellA","ckpt_epoch":3}`)
				return []string{"numadlog v1", good1, ckpt[:len(ckpt)/2], good2}
			}(),
			wantJobs: 1, wantState: "done", wantQuar: 1,
			wantReasons: []string{"crc-mismatch", "bad-frame"},
		},
		{
			// A well-formed "ckpt" record from an older release is no
			// longer a state: it is quarantined and the job folds from
			// its other records.
			name: "legacy ckpt record",
			lines: []string{"numadlog v1", good1,
				frameRaw(`{"seq":2,"id":"job-000001","state":"ckpt","ckpt_cell":"cellA","ckpt_epoch":3}`), good2},
			wantJobs: 1, wantState: "done", wantQuar: 1,
			wantReasons: []string{"bad-state"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeJournal(t, tc.lines...)
			rec, err := RecoverJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Jobs) != tc.wantJobs {
				t.Fatalf("jobs %d, want %d (%+v)", len(rec.Jobs), tc.wantJobs, rec.Jobs)
			}
			if tc.wantJobs > 0 && rec.Jobs[0].State != tc.wantState {
				t.Fatalf("state %q, want %q", rec.Jobs[0].State, tc.wantState)
			}
			if len(rec.Quarantined) != tc.wantQuar {
				t.Fatalf("quarantined %d, want %d: %+v", len(rec.Quarantined), tc.wantQuar, rec.Quarantined)
			}
			if tc.wantQuar > 0 {
				ok := false
				for _, r := range tc.wantReasons {
					if rec.Quarantined[0].Reason == r {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("reason %q not in %v", rec.Quarantined[0].Reason, tc.wantReasons)
				}
			}
		})
	}
}

// TestRecoverJournalDuplicateTransitions: replayed and out-of-order
// records are counted, not applied, and terminal states are sticky.
func TestRecoverJournalDuplicateTransitions(t *testing.T) {
	path := writeJournal(t,
		"numadlog v1",
		frame(JournalRecord{Seq: 1, ID: "job-000001", State: "queued", Key: "k1"}),
		frame(JournalRecord{Seq: 2, ID: "job-000001", State: "running"}),
		frame(JournalRecord{Seq: 3, ID: "job-000001", State: "done", CacheHit: true}),
		// Duplicate terminal append (crash between append and ack).
		frame(JournalRecord{Seq: 3, ID: "job-000001", State: "done", CacheHit: true}),
		// A terminal job cannot fail afterwards.
		frame(JournalRecord{Seq: 4, ID: "job-000001", State: "failed", Err: "late"}),
		// Backwards transition on a live job.
		frame(JournalRecord{Seq: 5, ID: "job-000002", State: "running"}),
		frame(JournalRecord{Seq: 6, ID: "job-000002", State: "queued"}),
	)
	rec, err := RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Jobs) != 2 {
		t.Fatalf("jobs %d, want 2", len(rec.Jobs))
	}
	if got := rec.Jobs[0]; got.State != "done" || !got.CacheHit || got.Err != "" {
		t.Fatalf("terminal state not sticky: %+v", got)
	}
	if got := rec.Jobs[1]; got.State != "running" {
		t.Fatalf("backwards transition applied: %+v", got)
	}
	if rec.Duplicates != 3 {
		t.Fatalf("duplicates %d, want 3", rec.Duplicates)
	}
	if len(rec.Quarantined) != 0 {
		t.Fatalf("valid records quarantined: %+v", rec.Quarantined)
	}
}

func TestCompactJournalKeepsTerminalDropsLive(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	appendRecords(t, path,
		JournalRecord{ID: "job-000001", State: "queued", Key: "k1", Spec: json.RawMessage(`{"workload":"lulesh"}`)},
		JournalRecord{ID: "job-000001", State: "done"},
		JournalRecord{ID: "job-000002", State: "queued", Key: "k2"},
		JournalRecord{ID: "job-000003", State: "queued", Key: "k3"},
		JournalRecord{ID: "job-000003", State: "failed", Err: "boom"},
	)
	rec, err := RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := CompactJournal(path, rec); err != nil {
		t.Fatal(err)
	}
	after, err := RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Jobs) != 2 {
		t.Fatalf("compacted jobs %d, want 2 (terminal only): %+v", len(after.Jobs), after.Jobs)
	}
	for _, j := range after.Jobs {
		if !j.Terminal() {
			t.Fatalf("non-terminal job survived compaction: %+v", j)
		}
	}
	if after.Jobs[0].ID != "job-000001" || string(after.Jobs[0].Spec) != `{"workload":"lulesh"}` {
		t.Fatalf("compaction lost the spec: %+v", after.Jobs[0])
	}
	if after.Jobs[1].Err != "boom" {
		t.Fatalf("compaction lost the error: %+v", after.Jobs[1])
	}
	// The compacted journal accepts further appends with continued
	// sequence numbers.
	j, err := OpenJournal(path, after.MaxSeq)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{ID: "job-000004", State: "queued"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	final, err := RecoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Jobs) != 3 || len(final.Quarantined) != 0 {
		t.Fatalf("append after compact broken: %+v", final)
	}
}

func TestAppendQuarantinePreservesLines(t *testing.T) {
	dir := t.TempDir()
	qpath := filepath.Join(dir, QuarantineName)
	recs := []QuarantinedRecord{
		{Line: 3, Reason: "crc-mismatch", Data: "deadbeef {...}"},
		{Line: 9, Reason: "bad-json", Data: "00000000 {"},
	}
	if err := AppendQuarantine(qpath, recs); err != nil {
		t.Fatal(err)
	}
	if err := AppendQuarantine(qpath, recs[:1]); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(qpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("quarantine lines %d, want 3:\n%s", len(lines), b)
	}
	if !strings.Contains(lines[0], "crc-mismatch") || !strings.Contains(lines[1], "bad-json") {
		t.Fatalf("quarantine lines malformed:\n%s", b)
	}
	// Empty input is a no-op that does not create the file.
	empty := filepath.Join(dir, "untouched")
	if err := AppendQuarantine(empty, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(empty); !os.IsNotExist(err) {
		t.Fatal("empty quarantine created a file")
	}
}

// TestJournalNilNoOp: the nil journal is valid and appends nothing —
// the daemon with journaling disabled shares the same call sites.
func TestJournalNilNoOp(t *testing.T) {
	var j *Journal
	if err := j.Append(JournalRecord{ID: "job-000001", State: "queued"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzRecoverJournal: recovery must never panic and never error on any
// byte soup — damage is quarantined, valid prefixes are salvaged.
func FuzzRecoverJournal(f *testing.F) {
	good := strings.Join([]string{
		"numadlog v1",
		frame(JournalRecord{Seq: 1, ID: "job-000001", State: "queued", Key: "k1", Spec: json.RawMessage(`{"workload":"lulesh"}`)}),
		frame(JournalRecord{Seq: 2, ID: "job-000001", State: "running"}),
		frame(JournalRecord{Seq: 3, ID: "job-000001", State: "done"}),
	}, "\n") + "\n"
	f.Add([]byte(good))
	f.Add([]byte(good[:len(good)-17]))        // truncated tail
	f.Add([]byte(strings.ToUpper(good)))      // case-destroyed
	f.Add([]byte("numadlog v1\n"))            // header only
	f.Add([]byte(""))                         // empty file
	f.Add([]byte("\x00\x01\x02\xff\xfe\n\n")) // binary garbage
	f.Add([]byte(good + good))                // doubled log (dup seqs)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), JournalName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		rec, err := RecoverJournal(path)
		if err != nil {
			t.Fatalf("recovery errored on fuzz input: %v", err)
		}
		for _, j := range rec.Jobs {
			if j.ID == "" || !validJournalState(j.State) {
				t.Fatalf("recovered an invalid job: %+v", j)
			}
		}
		// Recovery → compaction → recovery must stay stable: terminal
		// jobs survive byte-identically parseable, nothing new appears.
		if err := CompactJournal(path, rec); err != nil {
			t.Fatalf("compaction errored: %v", err)
		}
		again, err := RecoverJournal(path)
		if err != nil {
			t.Fatalf("recovery after compaction errored: %v", err)
		}
		if len(again.Quarantined) != 0 {
			t.Fatalf("compaction wrote unparseable records: %+v", again.Quarantined)
		}
		terminal := 0
		for _, j := range rec.Jobs {
			if j.Terminal() {
				terminal++
			}
		}
		if len(again.Jobs) != terminal {
			t.Fatalf("compaction changed the terminal set: %d vs %d", len(again.Jobs), terminal)
		}
	})
}
