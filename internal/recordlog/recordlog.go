// Package recordlog is the append-only line log under the campaign
// stack's two durable files: the sweep engine's work-stealing ledger
// (which doubles as the -checkpoint file) and the campaign service's job
// journal. A record is one line of bytes; the log frames, appends, reads
// back and syncs records and knows nothing of their content.
//
// The format is built for writers that die mid-write and for several
// processes appending to one file:
//
//   - The file is opened O_APPEND and never truncated. Each record goes
//     out in a single write(2) as '\n' + record + '\n', so concurrent
//     writers never interleave bytes within a record.
//   - The leading terminator closes off whatever fragment a failed or
//     killed writer left at the end of the file — this writer's own or
//     another process's, including one that arrived after this writer's
//     last read. The fragment becomes one complete line that no decoder
//     accepts, and the record behind it reads back whole.
//   - A reader holds back an unterminated tail (a write in progress, or a
//     crash's torn fragment awaiting the next record's terminator), skips
//     blank lines, and hands every complete line to its caller, which
//     rejects what it cannot decode. Rejected lines are skipped and
//     counted, never cut off: valid records may follow them.
//
// A Log has no lock; its owner serialises calls.
package recordlog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/failpoint"
)

// readChunk is the minimum read size of one ReadAt call.
const readChunk = 64 << 10

var errClosed = errors.New("closed")

// Log is one append-only record file.
type Log struct {
	f     *os.File
	fsync bool
	// Failpoint site names (see internal/failpoint): <site>.append is the
	// record write, <site>.sync the fsync after it (and Sync's), and
	// <site>.close the fsync at Close.
	appendSite, syncSite, closeSite string

	off     int64  // file bytes consumed by Read so far
	buf     []byte // bytes read but not yet terminated by '\n'
	skipped int    // complete lines the Read callback rejected
}

// Open opens (creating if needed) the log file at path. site prefixes the
// log's failpoint site names. With fsync set, every Append and the Close
// fsync the file before they return.
func Open(path, site string, fsync bool) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &Log{
		f: f, fsync: fsync,
		appendSite: site + ".append", syncSite: site + ".sync", closeSite: site + ".close",
	}, nil
}

// Append writes rec (which must not contain '\n') as one record and, with
// fsync set, syncs it. A failed write may leave part of the record in the
// file; the next Append's leading terminator caps it into a line every
// reader rejects.
func (l *Log) Append(rec []byte) error {
	if l.f == nil {
		return errClosed
	}
	buf := make([]byte, 0, len(rec)+2)
	buf = append(append(append(buf, '\n'), rec...), '\n')
	if _, err := failpoint.Write(l.appendSite, l.f, buf); err != nil {
		return fmt.Errorf("append: %w", err)
	}
	if l.fsync {
		return l.Sync()
	}
	return nil
}

// Read passes each complete, non-blank line appended since the last Read
// (by any writer) to fn, in file order, without its terminator; the slice
// is valid only during the call. A line fn rejects (returns false for) is
// skipped and counted. An unterminated tail is held back for a later
// Read.
func (l *Log) Read(fn func(line []byte) bool) error {
	if l.f == nil {
		return errClosed
	}
	for {
		if len(l.buf) == cap(l.buf) {
			l.buf = slices.Grow(l.buf, max(readChunk, len(l.buf)))
		}
		n, err := l.f.ReadAt(l.buf[len(l.buf):cap(l.buf)], l.off)
		l.off += int64(n)
		l.buf = l.buf[:len(l.buf)+n]
		rest := l.buf
		for {
			i := bytes.IndexByte(rest, '\n')
			if i < 0 {
				break
			}
			if line := rest[:i]; len(bytes.TrimSpace(line)) > 0 && !fn(line) {
				l.skipped++
			}
			rest = rest[i+1:]
		}
		l.buf = l.buf[:copy(l.buf, rest)]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("read: %w", err)
		}
	}
}

// Skipped returns how many complete lines Read callbacks have rejected.
func (l *Log) Skipped() int { return l.skipped }

// Sync fsyncs the file. It is a no-op once the log is closed.
func (l *Log) Sync() error {
	if l.f == nil {
		return nil
	}
	if err := failpoint.Sync(l.syncSite, l.f); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	return nil
}

// Close fsyncs the file (with fsync set) and closes it. Later calls are
// no-ops; Append and Read fail once the log is closed.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	var serr error
	if l.fsync {
		serr = failpoint.Sync(l.closeSite, l.f)
	}
	cerr := l.f.Close()
	l.f = nil
	if serr != nil {
		return fmt.Errorf("close: %w", serr)
	}
	return cerr
}
