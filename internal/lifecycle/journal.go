package lifecycle

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// journalMagic identifies a rockcress sweep journal; the version gates
// format changes so a resume against a journal from a different format
// fails loudly instead of silently skipping the wrong cells.
const (
	journalMagic   = "rockcress-sweep"
	journalVersion = 1
)

// JournalHeader is the first line of a journal file. Meta pins the sweep
// identity (selector, scale, fault plan, ...); Resume refuses a journal
// whose meta disagrees with the current invocation, because cell keys are
// only comparable within one sweep definition.
type JournalHeader struct {
	Magic   string            `json:"journal"`
	Version int               `json:"version"`
	Meta    map[string]string `json:"meta,omitempty"`
}

// JournalEntry is one completed sweep cell. Result is the cell's full result
// object, stored verbatim so a resumed sweep reproduces byte-identical
// tables; Err is set instead when the cell failed (a failed cell is
// journaled too, so resume retries it only when the caller asks).
type JournalEntry struct {
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result,omitempty"`
	Err    string          `json:"err,omitempty"`
}

// Journal is a crash-safe, append-only record of completed sweep cells:
// one JSONL line per cell, fsynced per append, so any prefix of the file —
// including one ending in a torn line from a hard kill — replays cleanly.
type Journal struct {
	mu   sync.Mutex // concurrent sweep jobs append
	f    *os.File
	path string
	err  error
}

// CreateJournal starts a fresh journal at path (truncating any previous
// one) and writes the header.
func CreateJournal(path string, meta map[string]string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{f: f, path: path}
	hdr := JournalHeader{Magic: journalMagic, Version: journalVersion, Meta: meta}
	if err := j.appendLine(&hdr); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// LoadJournal reads a journal, tolerating a torn trailing line (the expected
// state after a hard kill mid-append). It returns the header and the entries
// in file order; duplicate keys keep the first occurrence, matching the
// harness's first-wins cache semantics.
func LoadJournal(path string) (JournalHeader, []JournalEntry, error) {
	var hdr JournalHeader
	data, err := os.ReadFile(path)
	if err != nil {
		return hdr, nil, fmt.Errorf("journal: %w", err)
	}
	lines := bytes.Split(data, []byte("\n"))
	if len(lines) == 0 || len(bytes.TrimSpace(lines[0])) == 0 {
		return hdr, nil, fmt.Errorf("journal: %s: empty file", path)
	}
	if err := json.Unmarshal(lines[0], &hdr); err != nil || hdr.Magic != journalMagic {
		return hdr, nil, fmt.Errorf("journal: %s: not a sweep journal", path)
	}
	if hdr.Version != journalVersion {
		return hdr, nil, fmt.Errorf("journal: %s: version %d, want %d", path, hdr.Version, journalVersion)
	}
	var entries []JournalEntry
	seen := make(map[string]bool)
	for i := 1; i < len(lines); i++ {
		line := bytes.TrimSpace(lines[i])
		if len(line) == 0 {
			continue
		}
		var e JournalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			// A line that does not parse is valid only as the torn tail of
			// an interrupted append; anything after it means corruption.
			for k := i + 1; k < len(lines); k++ {
				if len(bytes.TrimSpace(lines[k])) != 0 {
					return hdr, nil, fmt.Errorf("journal: %s: corrupt entry at line %d", path, i+1)
				}
			}
			break
		}
		if e.Key == "" || seen[e.Key] {
			continue
		}
		seen[e.Key] = true
		entries = append(entries, e)
	}
	return hdr, entries, nil
}

// ResumeJournal loads an existing journal, verifies its meta matches the
// current sweep definition, and reopens it for appending. The returned
// entries are the cells already completed. If the torn tail of a hard kill
// is present the file is truncated back to the last complete line before
// appends continue.
func ResumeJournal(path string, meta map[string]string) (*Journal, []JournalEntry, error) {
	hdr, entries, err := LoadJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if len(hdr.Meta) != len(meta) {
		return nil, nil, metaMismatch(path, hdr.Meta, meta)
	}
	for k, v := range meta {
		if hdr.Meta[k] != v {
			return nil, nil, metaMismatch(path, hdr.Meta, meta)
		}
	}
	// Rewrite header + surviving entries so a torn tail never accumulates.
	f, err := os.OpenFile(path+".tmp", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{f: f, path: path}
	if err := j.appendLine(&hdr); err != nil {
		f.Close()
		return nil, nil, err
	}
	for i := range entries {
		if err := j.appendLine(&entries[i]); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	return j, entries, nil
}

func metaMismatch(path string, got, want map[string]string) error {
	return fmt.Errorf("journal: %s: sweep definition changed (journal %v, invocation %v); delete the journal or rerun without -resume",
		path, got, want)
}

// Record appends one completed cell. result is marshaled verbatim; pass nil
// with a non-empty errMsg for a failed cell. The append is fsynced before
// returning so a crash immediately after never loses an acknowledged cell.
func (j *Journal) Record(key string, result any, errMsg string) error {
	e := JournalEntry{Key: key, Err: errMsg}
	if result != nil {
		raw, err := json.Marshal(result)
		if err != nil {
			return fmt.Errorf("journal: marshal %s: %w", key, err)
		}
		e.Result = raw
	}
	return j.appendLine(&e)
}

// Path returns the journal file path.
func (j *Journal) Path() string { return j.path }

// Err returns the first append error, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return j.err
	}
	err := j.f.Close()
	j.f = nil
	if j.err == nil {
		j.err = err
	}
	return j.err
}

func (j *Journal) appendLine(v any) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	w := bufio.NewWriter(j.f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		j.err = err
		return fmt.Errorf("journal: %w", err)
	}
	if err := w.Flush(); err != nil {
		j.err = err
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.err = err
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}
