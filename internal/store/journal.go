// Job journal: the write-ahead log that makes the numad daemon
// crash-safe. Every job state transition is appended as one CRC-framed
// record before the transition is acknowledged, so a daemon killed at
// any instant — SIGKILL mid-burst included — can replay the log on
// restart, rebuild its job table, and re-enqueue or resume every job
// that had not reached a terminal state.
//
// Frame format (one record per line):
//
//	numadlog v1\n                    ← magic header, first line
//	<crc32-ieee hex8> <json>\n       ← each record: checksum of the
//	                                   exact JSON bytes that follow
//
// The framing borrows profio's discipline: checksummed bodies, and
// atomic temp+rename for every whole-file rewrite (compaction), so a
// reader sees either the previous complete journal or the new one,
// never a torn rewrite. Appends are fsynced before they are
// acknowledged — a client that saw 202 Accepted is guaranteed its job
// survives a crash.
//
// Recovery is paranoid by contract: RecoverJournal never panics on any
// input, tolerates a truncated tail record (the crash landed mid-
// append), and quarantines — rather than silently drops — every line it
// cannot parse or checksum, so operators can inspect what was lost.
// Duplicate or invalid transitions (a terminal job "transitioning"
// again, a replayed queued record) are counted and ignored: last valid
// state wins, the log stays append-only.
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/telemetry"
)

// JournalName is the journal's file name inside a daemon's data dir.
const JournalName = "journal.numadlog"

// QuarantineName is where recovery preserves unparseable journal lines.
const QuarantineName = "journal.quarantine"

// journalMagic is the first line of every v1 journal.
const journalMagic = "numadlog v1"

// JournalRecord is one job state transition. Spec rides only on the
// record that introduces a job (its first appearance in the log), so
// replay can rebuild the job from the log alone.
type JournalRecord struct {
	// Seq is the journal-assigned append sequence (1-based).
	Seq uint64 `json:"seq"`
	// ID is the job ID ("job-000042").
	ID string `json:"id"`
	// State is the job state this record moves to: queued, running,
	// done, failed, or canceled.
	State string `json:"state"`
	// Key is the job's store key (sweep jobs: the sweep-spec hash).
	Key string `json:"key,omitempty"`
	// Spec is the normalized job spec JSON, carried on the introducing
	// record.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Attempt counts runs of this job (0 on first execution); running
	// records carry it so recovery knows how many retries were spent.
	Attempt int `json:"attempt,omitempty"`
	// CacheHit and Err qualify terminal records.
	CacheHit bool   `json:"cache_hit,omitempty"`
	Err      string `json:"err,omitempty"`
	// Unix is the wall-clock second of the transition (operational
	// metadata only; replay ignores it).
	Unix int64 `json:"unix,omitempty"`
}

// terminalJournalState reports whether state ends a job's lifecycle.
func terminalJournalState(state string) bool {
	return state == "done" || state == "failed" || state == "canceled"
}

// validJournalState reports whether state is one of the five states.
func validJournalState(state string) bool {
	switch state {
	case "queued", "running", "done", "failed", "canceled":
		return true
	}
	return false
}

// Journal is the append handle. Every Append is serialized, framed,
// written, and fsynced before it returns.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	w   *bufio.Writer
	seq uint64

	appends *telemetry.Counter
}

// OpenJournal opens (or creates) a journal for appending. A fresh file
// gets the magic header; an existing one is appended to, continuing
// after fromSeq (pass RecoveredJournal.MaxSeq to keep sequence numbers
// monotonic across restarts).
func OpenJournal(path string, fromSeq uint64) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: stat journal: %w", err)
	}
	j := &Journal{
		f:       f,
		w:       bufio.NewWriter(f),
		seq:     fromSeq,
		appends: telemetry.Default.Counter("journal_appends_total"),
	}
	if info.Size() == 0 {
		if _, err := fmt.Fprintln(j.w, journalMagic); err != nil {
			f.Close()
			return nil, err
		}
		if err := j.flush(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// Append frames, writes, and fsyncs one record, assigning its sequence
// number. The nil *Journal is a valid no-op (journaling disabled), so
// callers never need to guard.
func (j *Journal) Append(rec JournalRecord) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	rec.Seq = j.seq
	body, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("store: encode journal record: %w", err)
	}
	if _, err := fmt.Fprintf(j.w, "%08x %s\n", crc32.ChecksumIEEE(body), body); err != nil {
		return fmt.Errorf("store: append journal: %w", err)
	}
	if err := j.flush(); err != nil {
		return fmt.Errorf("store: sync journal: %w", err)
	}
	j.appends.Inc()
	return nil
}

// flush pushes the buffer to the kernel and fsyncs. Callers hold mu.
func (j *Journal) flush() error {
	if err := j.w.Flush(); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// JournalJob is one job's replayed state: the fold of every valid
// record for its ID, in log order.
type JournalJob struct {
	ID       string
	State    string
	Key      string
	Spec     json.RawMessage
	Attempt  int
	CacheHit bool
	Err      string
}

// Terminal reports whether the job needs no recovery action.
func (jj *JournalJob) Terminal() bool { return terminalJournalState(jj.State) }

// QuarantinedRecord is one journal line recovery could not trust. It is
// preserved verbatim (capped) so nothing is dropped silently.
type QuarantinedRecord struct {
	// Line is the 1-based line number in the journal file.
	Line int
	// Reason classifies the damage: bad-frame, crc-mismatch, bad-json,
	// or bad-state. A record truncated mid-append surfaces as bad-frame
	// or crc-mismatch depending on where the cut landed.
	Reason string
	// Data is the offending line, capped at 512 bytes.
	Data string
}

// RecoveredJournal is the result of replaying a journal file.
type RecoveredJournal struct {
	// Jobs holds every job seen, in order of first appearance, folded
	// to its last valid state.
	Jobs []JournalJob
	// Quarantined preserves every line that failed framing, checksum,
	// decoding, or state validation.
	Quarantined []QuarantinedRecord
	// Records counts valid records replayed; Duplicates counts valid
	// records whose transition was ignored (e.g. a terminal job
	// "transitioning" again).
	Records    int
	Duplicates int
	// MaxSeq is the highest sequence number seen; pass it to
	// OpenJournal so appends continue monotonically.
	MaxSeq uint64
}

// NonTerminal returns the jobs needing recovery action (re-enqueue or
// resume), in first-appearance order.
func (r *RecoveredJournal) NonTerminal() []JournalJob {
	var out []JournalJob
	for _, j := range r.Jobs {
		if !j.Terminal() {
			out = append(out, j)
		}
	}
	return out
}

// quarCap bounds how much of a damaged line the quarantine preserves.
const quarCap = 512

// capLine truncates a damaged line for quarantine storage.
func capLine(s string) string {
	if len(s) > quarCap {
		return s[:quarCap]
	}
	return s
}

// RecoverJournal replays a journal file. A missing file is an empty
// recovery, not an error; any byte-level damage — truncated tail
// record, flipped bits, hand-edits, garbage — lands in Quarantined
// rather than an error or a panic. Only I/O failures reading the file
// surface as errors.
func RecoverJournal(path string) (*RecoveredJournal, error) {
	rec := &RecoveredJournal{}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return rec, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	defer f.Close()

	byID := make(map[string]int) // job ID → index in rec.Jobs
	quarantine := func(line int, reason, data string) {
		rec.Quarantined = append(rec.Quarantined, QuarantinedRecord{
			Line: line, Reason: reason, Data: capLine(data),
		})
	}

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	lineNo := 0
	sawMagic := false
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == journalMagic {
			// The header, wherever it survived. A journal whose header
			// was destroyed still replays: its records are self-framing,
			// and the damaged first line quarantines below like any
			// other unparseable line.
			sawMagic = true
			continue
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		crcHex, body, ok := strings.Cut(line, " ")
		if !ok || len(crcHex) != 8 {
			quarantine(lineNo, "bad-frame", line)
			continue
		}
		var want uint32
		if _, err := fmt.Sscanf(crcHex, "%08x", &want); err != nil {
			quarantine(lineNo, "bad-frame", line)
			continue
		}
		if got := crc32.ChecksumIEEE([]byte(body)); got != want {
			quarantine(lineNo, "crc-mismatch", line)
			continue
		}
		var r JournalRecord
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			quarantine(lineNo, "bad-json", line)
			continue
		}
		if r.ID == "" || !validJournalState(r.State) {
			quarantine(lineNo, "bad-state", line)
			continue
		}
		rec.Records++
		if r.Seq > rec.MaxSeq {
			rec.MaxSeq = r.Seq
		}
		idx, seen := byID[r.ID]
		if !seen {
			// First appearance introduces the job in whatever state the
			// record carries — a compacted journal starts jobs at their
			// folded state, not necessarily "queued".
			byID[r.ID] = len(rec.Jobs)
			rec.Jobs = append(rec.Jobs, JournalJob{
				ID: r.ID, State: r.State, Key: r.Key, Spec: r.Spec,
				Attempt: r.Attempt, CacheHit: r.CacheHit, Err: r.Err,
			})
			continue
		}
		j := &rec.Jobs[idx]
		if j.Terminal() {
			// A terminal job cannot transition again: duplicate append
			// (crash between append and ack, or a replayed log).
			rec.Duplicates++
			continue
		}
		if r.State == "queued" && j.State != "queued" {
			// Backwards transition: ignore, the log is append-only and
			// later records win only when the state machine allows it.
			rec.Duplicates++
			continue
		}
		j.State = r.State
		if r.Key != "" {
			j.Key = r.Key
		}
		if len(r.Spec) > 0 {
			j.Spec = r.Spec
		}
		if r.Attempt > j.Attempt {
			j.Attempt = r.Attempt
		}
		j.CacheHit = r.CacheHit
		j.Err = r.Err
	}
	if err := sc.Err(); err != nil {
		// A line the scanner refuses (overlong) quarantines instead of
		// failing the whole recovery; real read errors surface.
		if err == bufio.ErrTooLong {
			quarantine(lineNo+1, "bad-frame", "(line exceeds 4MiB)")
		} else {
			return nil, fmt.Errorf("store: read journal: %w", err)
		}
	}
	// A file that ends without a final newline had its tail record cut
	// mid-append; the scanner still yields the fragment, and the CRC
	// check above quarantines it. Nothing more to detect here — but an
	// empty existing file (created, never written) is fine too.
	if !sawMagic && lineNo > 0 {
		telemetry.Default.Counter("journal_missing_magic_total").Inc()
	}
	telemetry.Default.Counter("journal_recovered_records_total").Add(uint64(rec.Records))
	telemetry.Default.Counter("journal_quarantined_total").Add(uint64(len(rec.Quarantined)))
	return rec, nil
}

// AppendQuarantine preserves quarantined records in the side file next
// to the journal, one line each, so "not silently dropped" holds across
// compaction (which would otherwise erase the damaged lines).
func AppendQuarantine(path string, recs []QuarantinedRecord) error {
	if len(recs) == 0 {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, q := range recs {
		if _, err := fmt.Fprintf(w, "line %d [%s]: %s\n", q.Line, q.Reason, q.Data); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Sync()
}

// CompactJournal atomically rewrites the journal to one record per
// terminal job (non-terminal jobs are re-journaled by the server as it
// re-enqueues them, so they are deliberately excluded here). The
// rewrite reuses profio's temp+rename discipline: a crash mid-compact
// leaves the previous journal intact.
func CompactJournal(path string, rec *RecoveredJournal) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: compact journal: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	w := bufio.NewWriter(tmp)
	if _, err := fmt.Fprintln(w, journalMagic); err != nil {
		return err
	}
	seq := uint64(0)
	for _, j := range rec.Jobs {
		if !j.Terminal() {
			continue
		}
		seq++
		body, err := json.Marshal(&JournalRecord{
			Seq: seq, ID: j.ID, State: j.State, Key: j.Key, Spec: j.Spec,
			Attempt: j.Attempt, CacheHit: j.CacheHit, Err: j.Err,
		})
		if err != nil {
			return fmt.Errorf("store: compact journal: %w", err)
		}
		if _, err := fmt.Fprintf(w, "%08x %s\n", crc32.ChecksumIEEE(body), body); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		tmp = nil
		return err
	}
	name := tmp.Name()
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("store: compact journal: %w", err)
	}
	return nil
}
