package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
)

// walMagic opens every WAL file; a file without it is not a WAL.
const walMagic = "STWALv1\n"

// Record kinds. A rating record carries one accepted rating; a mark record
// is appended at each completed interval drain and carries the interval
// number, delimiting which records a snapshot already covers. A fated rating
// is a rating accepted into a substrate other than the primary interval
// ledger — a replica mirror or a deferred-delivery queue — tagged with the
// fate flags that route it back there on replay. Shard cores write them
// (manager.ShardCore): a shard's host cannot rely on whole-interval
// re-execution to rebuild those substrates after a kill, so they must be as
// durable as the primary ledger.
const (
	KindRating      byte = 1
	KindMark        byte = 2
	KindFatedRating byte = 3
)

// Fate flags carried by KindFatedRating records.
const (
	FateReplica  byte = 1 << 0
	FateDeferred byte = 1 << 1
)

// Record is one WAL entry. For KindRating, Seq is the rating's global
// sequence number (assigned at ingest, the dedupe key for replay) and the
// remaining fields are the rating itself. For KindMark, Seq is the interval
// number and the rating fields are zero. KindFatedRating is a rating record
// plus its Flags fate bits.
type Record struct {
	Kind            byte
	Flags           byte
	Seq             uint64
	Rater, Ratee    int32
	Cycle, Category int32
	Value           float64
}

// Frame layout: [uint32 LE payload length][uint32 LE CRC32-C of payload][payload].
// Rating payload: kind(1) seq(8) rater(4) ratee(4) cycle(4) category(4) value(8);
// a fated rating appends flags(1).
const (
	frameHeaderLen   = 8
	ratingPayloadLen = 1 + 8 + 4 + 4 + 4 + 4 + 8
	fatedPayloadLen  = ratingPayloadLen + 1
	markPayloadLen   = 1 + 8
	// maxPayloadLen bounds decoding so a corrupt length field cannot demand
	// an absurd allocation.
	maxPayloadLen = 1 << 10
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// putFrameHeader fills hdr with the frame header for payload.
func putFrameHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
}

func encodePayload(buf []byte, r Record) []byte {
	buf = append(buf, r.Kind)
	buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
	if r.Kind == KindMark {
		return buf
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Rater))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Ratee))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Cycle))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Category))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Value))
	if r.Kind == KindFatedRating {
		buf = append(buf, r.Flags)
	}
	return buf
}

func decodePayload(p []byte) (Record, error) {
	if len(p) == 0 {
		return Record{}, fmt.Errorf("%w: empty payload", ErrCorruptRecord)
	}
	var r Record
	r.Kind = p[0]
	switch r.Kind {
	case KindMark:
		if len(p) != markPayloadLen {
			return Record{}, fmt.Errorf("%w: mark payload %d bytes, want %d", ErrCorruptRecord, len(p), markPayloadLen)
		}
		r.Seq = binary.LittleEndian.Uint64(p[1:9])
	case KindRating, KindFatedRating:
		want := ratingPayloadLen
		if r.Kind == KindFatedRating {
			want = fatedPayloadLen
		}
		if len(p) != want {
			return Record{}, fmt.Errorf("%w: rating payload %d bytes, want %d", ErrCorruptRecord, len(p), want)
		}
		r.Seq = binary.LittleEndian.Uint64(p[1:9])
		r.Rater = int32(binary.LittleEndian.Uint32(p[9:13]))
		r.Ratee = int32(binary.LittleEndian.Uint32(p[13:17]))
		r.Cycle = int32(binary.LittleEndian.Uint32(p[17:21]))
		r.Category = int32(binary.LittleEndian.Uint32(p[21:25]))
		r.Value = math.Float64frombits(binary.LittleEndian.Uint64(p[25:33]))
		if r.Kind == KindFatedRating {
			r.Flags = p[33]
		}
	default:
		return Record{}, fmt.Errorf("%w: unknown record kind %d", ErrCorruptRecord, r.Kind)
	}
	return r, nil
}

// DecodeRecords reads framed records from r (positioned after the file
// header) until EOF or the first invalid frame. It returns the records
// decoded, the byte count of the valid prefix consumed, and a non-nil error
// wrapping ErrCorruptRecord if the stream ended in a torn or corrupt frame.
// It never panics on arbitrary input — the fuzz contract.
func DecodeRecords(r io.Reader) ([]Record, int64, error) {
	br := bufio.NewReader(r)
	var (
		recs  []Record
		valid int64
		hdr   [frameHeaderLen]byte
	)
	for {
		if _, err := io.ReadFull(br, hdr[:1]); err == io.EOF {
			return recs, valid, nil
		} else if err != nil {
			return recs, valid, fmt.Errorf("%w: torn frame header: %v", ErrCorruptRecord, err)
		}
		if _, err := io.ReadFull(br, hdr[1:]); err != nil {
			return recs, valid, fmt.Errorf("%w: torn frame header: %v", ErrCorruptRecord, err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxPayloadLen {
			return recs, valid, fmt.Errorf("%w: implausible payload length %d", ErrCorruptRecord, n)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return recs, valid, fmt.Errorf("%w: torn payload: %v", ErrCorruptRecord, err)
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return recs, valid, fmt.Errorf("%w: checksum mismatch", ErrCorruptRecord)
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return recs, valid, err
		}
		recs = append(recs, rec)
		valid += int64(frameHeaderLen) + int64(n)
	}
}

// WAL is an append-only write-ahead log. Safe for concurrent use.
type WAL struct {
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	path   string
	opts   Options
	buf    []byte
	maxSeq uint64
	// maxFatedSeq is the highest KindFatedRating sequence held, tracked
	// separately because fated records are covered by replica/deferred drains,
	// not by the primary drain floor that covers maxSeq.
	maxFatedSeq uint64
}

// Recovery reports what Open found in an existing WAL file.
type Recovery struct {
	// Records is the valid prefix of the log, in append order.
	Records []Record
	// TruncatedBytes is how many trailing bytes were cut as torn/corrupt.
	TruncatedBytes int64
	// Corrupt is the typed decode error (wrapping ErrCorruptRecord) that
	// ended the scan, nil for a clean log. The tail has already been
	// truncated; the error is informational for logging.
	Corrupt error
}

// Open opens (or creates) the WAL at path, scanning any existing content.
// A torn or corrupt tail is truncated — the file is left ending at the last
// valid record and the typed error is reported in Recovery.Corrupt. The
// returned WAL is positioned for appending.
func Open(path string, opts Options) (*WAL, Recovery, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Recovery{}, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, Recovery{}, err
	}
	var rec Recovery
	if st.Size() == 0 {
		if _, err := f.WriteString(walMagic); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
	} else {
		var magic [len(walMagic)]byte
		if _, err := io.ReadFull(f, magic[:]); err != nil || string(magic[:]) != walMagic {
			f.Close()
			return nil, Recovery{}, fmt.Errorf("%w: %s: bad or short WAL header", ErrCorruptRecord, path)
		}
		records, valid, derr := DecodeRecords(f)
		rec.Records = records
		end := int64(len(walMagic)) + valid
		if derr != nil {
			rec.Corrupt = derr
			rec.TruncatedBytes = st.Size() - end
			mTruncations.Inc()
			if err := f.Truncate(end); err != nil {
				f.Close()
				return nil, Recovery{}, err
			}
		}
		if _, err := f.Seek(end, io.SeekStart); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
	}
	w := &WAL{f: f, w: bufio.NewWriterSize(f, 1<<16), path: path, opts: opts}
	for _, r := range rec.Records {
		w.noteSeqLocked(r)
	}
	return w, rec, nil
}

// noteSeqLocked advances the per-kind sequence high-water marks.
func (w *WAL) noteSeqLocked(r Record) {
	switch r.Kind {
	case KindRating:
		if r.Seq > w.maxSeq {
			w.maxSeq = r.Seq
		}
	case KindFatedRating:
		if r.Seq > w.maxFatedSeq {
			w.maxFatedSeq = r.Seq
		}
	}
}

// Append frames, checksums and writes the records, then flushes them to the
// OS so they survive process death before the caller acknowledges the
// ingest. Fsync to stable storage follows the configured policy.
func (w *WAL) Append(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var total int64
	for _, r := range recs {
		w.noteSeqLocked(r)
		w.buf = encodePayload(w.buf[:0], r)
		var hdr [frameHeaderLen]byte
		putFrameHeader(hdr[:], w.buf)
		if _, err := w.w.Write(hdr[:]); err != nil {
			mErrors.Inc()
			return err
		}
		if _, err := w.w.Write(w.buf); err != nil {
			mErrors.Inc()
			return err
		}
		total += int64(frameHeaderLen) + int64(len(w.buf))
	}
	if err := w.w.Flush(); err != nil {
		mErrors.Inc()
		return err
	}
	mWALBytes.Add(total)
	mWALRecords.Add(int64(len(recs)))
	if w.opts.Fsync == FsyncAlways {
		return w.syncLocked()
	}
	return nil
}

// AppendMark appends an interval-boundary mark and syncs it (unless the
// policy is FsyncNever): everything before the mark belongs to completed
// intervals a snapshot covers.
func (w *WAL) AppendMark(interval uint64) error {
	if err := w.Append([]Record{{Kind: KindMark, Seq: interval}}); err != nil {
		return err
	}
	if w.opts.Fsync == FsyncNever {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

// Sync flushes and fsyncs the log regardless of policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.w.Flush(); err != nil {
		mErrors.Inc()
		return err
	}
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	sp := mWALFsync.Start()
	err := w.f.Sync()
	sp.End()
	if err != nil {
		mErrors.Inc()
	}
	return err
}

// Rotate discards the log's contents (they are covered by a durable
// snapshot) and starts a fresh epoch in place.
func (w *WAL) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.w.Flush(); err != nil {
		mErrors.Inc()
		return err
	}
	if err := w.f.Truncate(int64(len(walMagic))); err != nil {
		mErrors.Inc()
		return err
	}
	if _, err := w.f.Seek(int64(len(walMagic)), io.SeekStart); err != nil {
		return err
	}
	w.w.Reset(w.f)
	w.maxSeq = 0
	w.maxFatedSeq = 0
	if w.opts.Fsync != FsyncNever {
		return w.syncLocked()
	}
	return nil
}

// MaxSeq reports the highest primary rating-record sequence number the log
// holds (recovered at Open plus appended since), 0 for a log with no ratings.
func (w *WAL) MaxSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.maxSeq
}

// MaxFatedSeq reports the highest fated-rating sequence number the log holds,
// 0 for a log with no fated records.
func (w *WAL) MaxFatedSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.maxFatedSeq
}

// ReadBack flushes the writer and re-decodes the whole log from disk,
// returning its records in append order. Used by recovery paths that need to
// replay the log into a fresh in-memory state while keeping it open for
// further appends.
func (w *WAL) ReadBack() ([]Record, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.w.Flush(); err != nil {
		mErrors.Inc()
		return nil, err
	}
	f, err := os.Open(w.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [len(walMagic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || string(magic[:]) != walMagic {
		return nil, fmt.Errorf("%w: %s: bad or short WAL header", ErrCorruptRecord, w.path)
	}
	recs, _, derr := DecodeRecords(f)
	return recs, derr
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Close flushes, syncs (unless FsyncNever) and closes the log.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.w.Flush()
	if err == nil && w.opts.Fsync != FsyncNever {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
