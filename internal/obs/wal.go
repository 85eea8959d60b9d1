package obs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
)

// WALHeader is the first line of every write-ahead log: the name and
// version of the operation-log format. A log that does not start with it
// — any log written in the decision-event format of earlier releases —
// is refused by the reader; there is no migration.
const WALHeader = `{"wal":"cubefit-ops","version":1}` + "\n"

// walBufferSize is the in-memory staging buffer of a WAL. Records are
// encoded into it as operations close and reach the underlying writer in
// one burst per Sync (group commit); bufio flushes early only when a
// batch outgrows the buffer.
const walBufferSize = 1 << 20

// ErrWALClosed is the sticky error of a WAL that was closed; admissions
// recorded afterwards are rejected, not silently dropped.
var ErrWALClosed = errors.New("obs: wal closed")

// errNotOpsLog refuses a log in any other format than this one.
var errNotOpsLog = errors.New(`obs: wal is not a cubefit-ops version 1 log: its first line is not {"wal":"cubefit-ops","version":1} ` +
	"(logs of the decision-event format written by earlier releases cannot be read; there is no migration)")

// Syncer is the durability hook of a WAL's underlying writer. *os.File
// implements it; writers without a Sync method (buffers in tests) are
// treated as durable on flush.
type Syncer interface {
	Sync() error
}

// CommitLog is the durability seam of the admission pipeline: a Recorder
// whose group commit (Sync) makes every operation recorded so far durable
// before the admissions it covers are acked, with sticky fail-closed
// error reporting. *WAL implements it; the api.Controller depends only on
// this interface, so tests and instrumentation can wrap or fake the log.
type CommitLog interface {
	Recorder
	// Sync makes every recorded operation durable (group commit) and
	// returns the sticky error, if any.
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

// WAL is the write-ahead operation log. It consumes the decision event
// stream, but persists only the input sequence: CubeFit is deterministic,
// so its placement follows from the arrivals and departures alone. After
// the WALHeader line it writes one newline-terminated JSON record per
// operation:
//
//	{"op":"admit","tenant":7,"load":0.3,"clients":8,"hosts":[12,40]}
//	{"op":"reject","tenant":8,"load":1.5,"clients":0}
//	{"op":"depart","tenant":7}
//
// Record folds the stream through an OpFold and writes each operation as
// it closes; every event kind outside the fold's grammar is dropped. The
// hosts let recovery check that the replayed engine places each admission
// where the original did.
//
// Error handling is sticky and fail-closed: after the first write, flush,
// or sync error — or an event the fold refuses, such as an admit for
// another tenant — every subsequent Record is dropped and
// every Sync returns the original error, so a full disk surfaces as
// failed admissions rather than a log silently missing its tail or
// holding a wrong operation. Err exposes the state for callers that want
// to refuse work before mutating anything.
//
// WAL is safe for concurrent use.
type WAL struct {
	mu sync.Mutex
	//cubefit:guarded-by mu
	bw   *bufio.Writer
	sync Syncer // nil when the writer has no Sync method; set at construction only
	cl   io.Closer
	// op folds the event stream into operations; buf is the reused encode
	// buffer a closed operation's record is appended into.
	//cubefit:guarded-by mu
	op OpFold
	//cubefit:guarded-by mu
	buf []byte
	// n counts records accepted into the buffer; synced counts records
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

// NewWAL returns a write-ahead log over w. Unless w is a file that
// already holds bytes (judged by its Stat), it is a new log and gets the
// WALHeader, staged like a record, so it reaches w with the first Sync. If
// w implements Syncer (*os.File does), Sync pushes flushed bytes to stable
// storage; if it implements io.Closer, Close closes it after the final
// flush. A file whose size cannot be read yields a WAL whose sticky error
// is already set.
func NewWAL(w io.Writer) *WAL {
	bw := bufio.NewWriterSize(w, walBufferSize)
	size, err := fileSize(w)
	if err == nil && size == 0 {
		_, err = bw.WriteString(WALHeader)
	}
	wal := &WAL{bw: bw, err: err}
	wal.failed.Store(err != nil)
	if s, ok := w.(Syncer); ok {
		wal.sync = s
	}
	if c, ok := w.(io.Closer); ok {
		wal.cl = c
	}
	return wal
}

// fileSize returns the size of a log file, and 0 for a writer or reader
// that is not a file.
func fileSize(x any) (int64, error) {
	f, ok := x.(interface{ Stat() (fs.FileInfo, error) })
	if !ok {
		return 0, nil
	}
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("obs: wal stat: %w", err)
	}
	return fi.Size(), nil
}

// OpenWAL opens (creating if needed) the write-ahead log at path for
// appending; an empty or new file gets the WALHeader. Recovery reads the
// existing contents, and cuts them to their committed prefix, before the
// server starts appending new records to the same file.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: open wal: %w", err)
	}
	w := NewWAL(f)
	if err := w.Err(); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return w, nil
}

// Record implements Recorder: it folds the event into the open admission
// and, when the event closes an operation, encodes the operation's record
// into the staging buffer. The record only becomes durable once a
// subsequent Sync completes.
func (w *WAL) Record(e Event) {
	if !inOpGrammar(e.Kind) {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	op, err := w.op.next(&e)
	if err != nil {
		w.failLocked(fmt.Errorf("obs: wal: %w", err))
		return
	}
	if op == nil {
		return
	}
	w.buf = appendOp(w.buf[:0], op)
	if _, err := w.bw.Write(w.buf); err != nil {
		w.failLocked(fmt.Errorf("obs: wal write: %w", err))
		return
	}
	w.n++
}

// failLocked sets the sticky error.
func (w *WAL) failLocked(err error) {
	w.err = err
	w.failed.Store(true)
}

// appendOp appends one operation's record, newline included, to buf.
// Reject and depart records leave out the fields they do not carry.
//
//cubefit:hotpath
func appendOp(buf []byte, op *Op) []byte {
	buf = append(buf, `{"op":"`...)
	buf = append(buf, op.Kind...)
	buf = append(buf, `","tenant":`...)
	buf = strconv.AppendInt(buf, int64(op.Tenant), 10)
	if op.Kind == KindDepart {
		return append(buf, "}\n"...)
	}
	buf = append(buf, `,"load":`...)
	buf = strconv.AppendFloat(buf, op.Load, 'g', -1, 64)
	buf = append(buf, `,"clients":`...)
	buf = strconv.AppendInt(buf, int64(op.Clients), 10)
	if op.Kind == KindReject {
		return append(buf, "}\n"...)
	}
	buf = append(buf, `,"hosts":[`...)
	for i, h := range op.Hosts {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(h), 10)
	}
	return append(buf, "]}\n"...)
}

// Sync is the group commit: it flushes the staging buffer and syncs the
// underlying writer, making every previously recorded operation durable.
// It returns the sticky error, if any, so callers can refuse to ack
// admissions whose records may not have reached stable storage.
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
		w.failLocked(fmt.Errorf("obs: wal flush: %w", err))
		return w.err
	}
	if w.sync != nil {
		if err := w.sync.Sync(); err != nil {
			w.failLocked(fmt.Errorf("obs: wal sync: %w", err))
			return w.err
		}
	}
	w.synced = w.n
	return nil
}

// Err returns the sticky error, if any. A non-nil value means operations
// have been or would be dropped: callers on the admission path must fail
// closed rather than proceed unlogged.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Count returns the number of operation records accepted into the log,
// durable or still staged.
func (w *WAL) Count() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Synced returns the number of operation records made durable by a
// completed Sync.
func (w *WAL) Synced() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.synced
}

// maxWALLine bounds one line of the log, newline included. Records are
// under a hundred bytes at the replication factors CubeFit runs with.
const maxWALLine = 64 << 10

// ReadWAL decodes a write-ahead log into the events recovery consumes,
// tolerating a torn final record: a crash (or a buffer flush racing a
// kill) can leave the last line truncated or missing its terminating
// newline, and that record belongs to an operation that was never acked,
// so it is dropped rather than failing recovery. torn reports whether a
// tail was discarded. Malformed records anywhere before the final line
// still fail, because they indicate corruption rather than a clean
// truncation, and so does a log in any other format (see WALHeader).
func ReadWAL(r io.Reader) (events []Event, torn bool, err error) {
	events, _, torn, err = ReadWALOffsets(r)
	return events, torn, err
}

// ReadWALOffsets decodes a write-ahead log like ReadWAL and additionally
// reports where each event's record ends: ends[i] is the byte offset just
// past the terminating newline of the record event i was decoded from,
// i.e. the size the file would have if truncated right after that record.
// Recovery uses the offsets to cut a torn tail at a record boundary (see
// TruncateWAL).
//
// Each record decodes into an Op, which expands into the events recovery
// folds back: an admit into an attempt (Tenant, Size, Clients), one
// KindPlace event per replica (Replica, Server) and the admit; a reject
// into the attempt and the reject; a depart into the depart alone. The
// events of one record share its end offset. A record holding an
// operation the writer refuses (see OpFold) is malformed. The decision
// stream itself — probes, cube slots, bin lifecycle, stages — is not in
// the log: the controller's event ring keeps its recent part (GET
// /debug/events), and replaying the log through a fresh engine with a
// recorder attached regenerates all of it (recovery.Replay).
//
// The newline is part of the record: a final line without one — even a
// tail that happens to parse as a complete record, or a header missing
// its newline — was torn mid-write and is dropped, never trusted.
func ReadWALOffsets(r io.Reader) (events []Event, ends []int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, maxWALLine)
	var (
		off int64
		op  Op
	)
	for line := 1; ; line++ {
		raw, rerr := br.ReadSlice('\n')
		switch {
		case errors.Is(rerr, bufio.ErrBufferFull):
			return nil, nil, false, fmt.Errorf("obs: wal line %d exceeds %d bytes", line, maxWALLine)
		case rerr != nil && rerr != io.EOF:
			return nil, nil, false, fmt.Errorf("obs: wal read: %w", rerr)
		case len(raw) == 0:
			// Clean EOF exactly at a record boundary.
			return events, ends, false, nil
		case rerr == io.EOF:
			// Unterminated final chunk: torn regardless of content, unless
			// it cannot even begin this format's header.
			if line == 1 && (len(raw) >= len(WALHeader) || string(raw) != WALHeader[:len(raw)]) {
				return nil, nil, false, errNotOpsLog
			}
			return events, ends, true, nil
		}
		off += int64(len(raw))
		if line == 1 {
			if string(raw) != WALHeader {
				return nil, nil, false, errNotOpsLog
			}
			events, ends = presize(r)
			continue
		}
		if !decodeOp(raw[:len(raw)-1], &op) || op.check() != nil {
			// A malformed final line is a torn tail; anywhere earlier it
			// is corruption.
			if _, perr := br.Peek(1); perr == io.EOF {
				return events, ends, true, nil
			}
			return nil, nil, false, fmt.Errorf("obs: wal record %d (line %d) is malformed", line-1, line)
		}
		n := len(events)
		events = op.appendEvents(events)
		for range events[n:] {
			ends = append(ends, off)
		}
	}
}

// bytesPerEvent underestimates the log bytes behind one decoded event: an
// admission record of about 75 bytes decodes into γ+2 events.
const bytesPerEvent = 16

// presize allocates the decoded slices for a log file of the reader's
// size: growing them by doubling copies every event about twice, which
// was most of the decode time.
func presize(r io.Reader) ([]Event, []int64) {
	size, err := fileSize(r)
	if err != nil || size == 0 {
		return nil, nil // no size to go by: the slices grow as they fill
	}
	n := size / bytesPerEvent
	return make([]Event, 0, n), make([]int64, 0, n)
}

// decodeOp parses one record, given without its newline, into op,
// reusing its Hosts. It accepts exactly the form appendOp writes.
func decodeOp(rec []byte, op *Op) bool {
	s := opScanner{b: rec, ok: true}
	switch {
	case s.skip(`{"op":"admit","tenant":`):
		op.Kind = KindAdmit
	case s.skip(`{"op":"reject","tenant":`):
		op.Kind = KindReject
	case s.skip(`{"op":"depart","tenant":`):
		op.Kind = KindDepart
	default:
		return false
	}
	op.Tenant, op.Load, op.Clients, op.Hosts = s.int(), 0, 0, op.Hosts[:0]
	if op.Kind != KindDepart {
		s.expect(`,"load":`)
		op.Load = s.float()
		s.expect(`,"clients":`)
		op.Clients = s.int()
	}
	if op.Kind == KindAdmit {
		s.expect(`,"hosts":[`)
		for s.ok {
			op.Hosts = append(op.Hosts, s.int())
			if !s.skip(",") {
				break
			}
		}
		s.expect("]")
	}
	s.expect("}")
	return s.ok && len(s.b) == 0
}

// opScanner walks one record; ok turns false at the first byte that does
// not fit and stays false.
type opScanner struct {
	b  []byte
	ok bool
}

// skip consumes lit if the record continues with it.
func (s *opScanner) skip(lit string) bool {
	if !s.ok || len(s.b) < len(lit) || string(s.b[:len(lit)]) != lit {
		return false
	}
	s.b = s.b[len(lit):]
	return true
}

// expect consumes lit or fails the scan.
func (s *opScanner) expect(lit string) {
	if !s.skip(lit) {
		s.ok = false
	}
}

// number consumes the run of bytes up to the next delimiter.
func (s *opScanner) number() []byte {
	i := 0
	for i < len(s.b) && s.b[i] != ',' && s.b[i] != ']' && s.b[i] != '}' {
		i++
	}
	tok := s.b[:i]
	s.b = s.b[i:]
	return tok
}

func (s *opScanner) int() int {
	if !s.ok {
		return 0
	}
	v, err := strconv.Atoi(string(s.number()))
	s.ok = err == nil
	return v
}

func (s *opScanner) float() float64 {
	if !s.ok {
		return 0
	}
	v, err := strconv.ParseFloat(string(s.number()), 64)
	s.ok = err == nil
	return v
}

// TruncateWAL cuts the log at path down to size bytes — the committed
// prefix reported by recovery — and returns the number of bytes removed.
// Every complete record is committed, because the log writes an
// operation only once it has closed; what lies past the last one is a
// torn partial record, and appending fresh records after it would read
// back as a corrupt line on the next boot. A missing file is fine when
// size is 0; a file shorter than size is an error, since the committed
// prefix must still be present.
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
// flush, or sync failure, or an event that does not fit the open
// admission — not a clean Close). Unlike Err it never takes the WAL
// lock, so it stays readable while a group commit is blocked inside a
// hung fsync.
func (w *WAL) Failed() bool { return w.failed.Load() }
