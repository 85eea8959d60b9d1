package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// walBufferSize is the in-memory staging buffer of a WAL. Events are
// encoded into it as they are recorded and reach the underlying writer in
// one burst per Sync (group commit); bufio flushes early only when a
// batch outgrows the buffer.
const walBufferSize = 1 << 20

// ErrWALClosed is the sticky error of a WAL that was closed; admissions
// recorded afterwards are rejected, not silently dropped.
var ErrWALClosed = errors.New("obs: wal closed")

// Syncer is the durability hook of a WAL's underlying writer. *os.File
// implements it; writers without a Sync method (buffers in tests) are
// treated as durable on flush.
type Syncer interface {
	Sync() error
}

// CommitLog is the durability seam of the admission pipeline: a Recorder
// whose group commit (Sync) makes every previously recorded event durable
// before the admissions it covers are acked, with sticky fail-closed
// error reporting. *WAL implements it; the api.Controller depends only on
// this interface, so tests and instrumentation can wrap or fake the log.
type CommitLog interface {
	Recorder
	// Sync makes every recorded event durable (group commit) and returns
	// the sticky error, if any.
	Sync() error
	// Err returns the sticky error, if any; callers on the admission path
	// must fail closed on a non-nil value.
	Err() error
	// Failed reports sticky commit failure without taking the commit
	// lock, so health sampling survives a hung fsync.
	Failed() bool
	// Close performs a final commit and releases the underlying file.
	Close() error
}

var _ CommitLog = (*WAL)(nil)

// WAL is a write-ahead sink for the decision event stream: events are
// JSON-encoded into an in-memory buffer as the engines emit them, and a
// group commit (Sync) pushes the accumulated batch to the underlying
// writer and fsyncs it before the admissions it covers are acked.
//
// Error handling is sticky and fail-closed: after the first write, flush,
// or sync error every subsequent Record is dropped and every Sync returns
// the original error, so a full disk surfaces as failed admissions rather
// than an event log silently missing its tail. Err exposes the state for
// callers that want to refuse work before mutating anything.
//
// WAL is safe for concurrent use.
type WAL struct {
	mu sync.Mutex
	//cubefit:guarded-by mu
	bw   *bufio.Writer
	sync Syncer // nil when the writer has no Sync method; set at construction only
	cl   io.Closer
	// n counts events accepted into the buffer; synced counts events
	// covered by a completed Sync, i.e. durable.
	//cubefit:guarded-by mu
	n uint64
	//cubefit:guarded-by mu
	synced uint64
	//cubefit:guarded-by mu
	err error
	// failed mirrors "err holds a commit error" without the mutex, so
	// health sampling can observe fail-closed state even while a group
	// commit is blocked inside the underlying Sync (a hung fsync must not
	// freeze the monitor). A clean Close does not set it.
	failed atomic.Bool
	// closed is tracked separately from the sticky err: a write error
	// must not make Close lose its run-once guarantee (double-closing
	// the underlying file) just because err already holds something.
	//cubefit:guarded-by mu
	closed bool
}

// NewWAL returns a write-ahead sink over w. If w implements Syncer
// (*os.File does), Sync pushes flushed bytes to stable storage; if it
// implements io.Closer, Close closes it after the final flush.
func NewWAL(w io.Writer) *WAL {
	wal := &WAL{bw: bufio.NewWriterSize(w, walBufferSize)}
	if s, ok := w.(Syncer); ok {
		wal.sync = s
	}
	if c, ok := w.(io.Closer); ok {
		wal.cl = c
	}
	return wal
}

// OpenWAL opens (creating if needed) the write-ahead log at path for
// appending. Recovery reads the existing contents before the server
// starts appending new events to the same file.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: open wal: %w", err)
	}
	return NewWAL(f), nil
}

// Record implements Recorder: the event is encoded into the staging
// buffer. It only becomes durable once a subsequent Sync completes.
func (w *WAL) Record(e Event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	if err := encodeEvent(w.bw, e); err != nil {
		w.err = fmt.Errorf("obs: wal write: %w", err)
		w.failed.Store(true)
		return
	}
	w.n++
}

// encodeEvent writes one event as a JSON line. A fresh json.Encoder per
// call would allocate; the WAL is not on the engines' allocation-free
// path (it exists for durability, and encoding dominates), so the
// straightforward form is fine.
func encodeEvent(bw *bufio.Writer, e Event) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if _, err := bw.Write(data); err != nil {
		return err
	}
	return bw.WriteByte('\n')
}

// Sync is the group commit: it flushes the staging buffer and syncs the
// underlying writer, making every previously recorded event durable. It
// returns the sticky error, if any, so callers can refuse to ack
// admissions whose events may not have reached stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = fmt.Errorf("obs: wal flush: %w", err)
		w.failed.Store(true)
		return w.err
	}
	if w.sync != nil {
		if err := w.sync.Sync(); err != nil {
			w.err = fmt.Errorf("obs: wal sync: %w", err)
			w.failed.Store(true)
			return w.err
		}
	}
	w.synced = w.n
	return nil
}

// Err returns the sticky error, if any. A non-nil value means events have
// been or would be dropped: callers on the admission path must fail
// closed rather than proceed unlogged.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Count returns the number of events accepted into the log, durable or
// still staged.
func (w *WAL) Count() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Synced returns the number of events made durable by a completed Sync.
func (w *WAL) Synced() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.synced
}

// maxWALLine bounds one encoded event when scanning a log back in; events
// are a few hundred bytes, so 1 MiB leaves generous slack for long Reason
// strings and digit expansions.
const maxWALLine = 1 << 20

// ReadWAL decodes a write-ahead log, tolerating a torn final record: a
// crash (or a buffer flush racing a kill) can leave the last line
// truncated mid-JSON or missing its terminating newline, and that tail
// belongs to an admission that was never acked, so it is dropped rather
// than failing recovery. torn reports whether a tail was discarded.
// Malformed records anywhere before the final line still fail, because
// they indicate corruption rather than a clean truncation.
func ReadWAL(r io.Reader) (events []Event, torn bool, err error) {
	events, _, torn, err = ReadWALOffsets(r)
	return events, torn, err
}

// ReadWALOffsets decodes a write-ahead log like ReadWAL and additionally
// reports each record's end position: ends[i] is the byte offset just
// past event i's terminating newline, i.e. the size the file would have
// if truncated immediately after that record. Recovery uses the offsets
// to cut an uncommitted suffix at a record boundary (see TruncateWAL).
//
// The newline is part of the record: a final line without one — even a
// tail that happens to parse as complete JSON — was torn mid-write and
// is dropped, never trusted.
func ReadWALOffsets(r io.Reader) (events []Event, ends []int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 64*1024)
	var off int64
	line := 0
	for {
		raw, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return nil, nil, false, fmt.Errorf("obs: wal read: %w", rerr)
		}
		if len(raw) == 0 {
			// Clean EOF exactly at a record boundary.
			return events, ends, false, nil
		}
		line++
		if len(raw) > maxWALLine {
			return nil, nil, false, fmt.Errorf("obs: wal record %d exceeds %d bytes", line, maxWALLine)
		}
		if rerr == io.EOF {
			// Unterminated final chunk: torn regardless of content.
			return events, ends, true, nil
		}
		off += int64(len(raw))
		data := raw[:len(raw)-1]
		if len(data) == 0 {
			continue
		}
		var e Event
		if uerr := json.Unmarshal(data, &e); uerr != nil {
			// A parse failure on the final line is a torn tail; anywhere
			// earlier it is corruption.
			if _, perr := br.Peek(1); perr == io.EOF {
				return events, ends, true, nil
			}
			return nil, nil, false, fmt.Errorf("obs: wal record %d: %w", line, uerr)
		}
		events = append(events, e)
		ends = append(ends, off)
	}
}

// TruncateWAL cuts the log at path down to size bytes — the committed
// prefix reported by recovery — and returns the number of bytes removed.
// Cutting at the committed record boundary (not merely at the last
// newline) discards complete-but-uncommitted event lines, e.g. an open
// attempt left behind when a bufio auto-flush outran its group commit,
// along with any torn partial record: appending fresh records after such
// a suffix would read back as an interleaved (corrupt) log on the next
// boot. A missing file is fine when size is 0; a file shorter than size
// is an error, since the committed prefix must still be present.
func TruncateWAL(path string, size int64) (removed int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) && size == 0 {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("obs: truncate wal: %w", err)
	}
	defer func() {
		// The handle mutated the log, so a failed close may hide a failed
		// write-back; it joins the result rather than vanishing.
		if cerr := f.Close(); err == nil && cerr != nil {
			removed, err = 0, fmt.Errorf("obs: truncate wal: %w", cerr)
		}
	}()
	cur, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, fmt.Errorf("obs: truncate wal: %w", err)
	}
	if cur < size {
		return 0, fmt.Errorf("obs: truncate wal: %s is %d bytes, shorter than committed prefix %d", path, cur, size)
	}
	if cur == size {
		return 0, nil
	}
	if err := f.Truncate(size); err != nil {
		return 0, fmt.Errorf("obs: truncate wal: %w", err)
	}
	return cur - size, f.Sync()
}

// Close performs a final group commit and closes the underlying writer
// (when it is closable). Further records are dropped and syncs report
// ErrWALClosed; the first Close reports the commit-and-close outcome and
// later calls return nil — including when a sticky write error predates
// the close, so a retried shutdown never double-closes the writer.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.syncLocked()
	if w.cl != nil {
		if cerr := w.cl.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("obs: wal close: %w", cerr)
		}
	}
	if w.err == nil {
		// A clean close is not a commit failure: Failed stays false.
		w.err = ErrWALClosed
	}
	return err
}

// Failed reports whether the log carries a sticky commit error (write,
// flush, or sync failure — not a clean Close). Unlike Err it never takes
// the WAL lock, so it stays readable while a group commit is blocked
// inside a hung fsync.
func (w *WAL) Failed() bool { return w.failed.Load() }
