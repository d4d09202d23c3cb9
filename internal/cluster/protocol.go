// The cluster message protocol: the wire form of manager.ShardConn.
// Requests carry an op, a request ID (the pipelining key), a shard index and
// an op-specific body; replies echo op|replyFlag and the request ID, lead
// with a status byte, and carry the op-specific result. All integers are
// little-endian; every decode path bounds-checks counts against the bytes
// actually present before allocating, and reports ErrCorruptFrame instead of
// panicking on malformed input.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"socialtrust/internal/manager"
	"socialtrust/internal/rating"
)

// protoVersion is the wire protocol version carried in Hello.
const protoVersion = 2

// Operation codes, one per ShardConn method plus the Hello handshake. A
// reply's op is the request's op with replyFlag set. Codes 4 and 6 belonged
// to version 1's query and broadcast ops; they stay unused so a version-1
// frame can never parse as a different version-2 op.
const (
	opHello         byte = 1  // connection setup: geometry, hosted shards
	opSubmitPlain   byte = 2  // direct-mode sub-batch (SubmitPlain)
	opSubmitEntries byte = 3  // fault-mode sub-batch with fate bits (SubmitEntries)
	opDrain         byte = 5  // interval drain (Drain)
	opCrash         byte = 7  // kill the shard incarnation (ledgers die, WAL survives)
	opRestart       byte = 8  // fresh incarnation: WAL replay floors
	opMark          byte = 9  // interval mark on the shard WAL
	opCompactWAL    byte = 10 // rotate the shard WAL if covered by the drained mark
	opResetWAL      byte = 11 // discard the shard WAL contents

	replyFlag byte = 0x80
)

// Reply status codes.
const (
	statusOK    byte = 0
	statusError byte = 1
)

const (
	msgHeaderLen  = 1 + 8 + 4 // op, request ID, shard
	ratingWireLen = 4 + 4 + 4 + 4 + 8 + 8
)

// entry flag bits (opSubmitEntries).
const (
	entryReplica  byte = 1 << 0
	entryDeferred byte = 1 << 1
)

// ---- encode helpers (append-style, into the caller's reusable buffer) ----

func appendHeader(b []byte, op byte, id uint64, shard uint32) []byte {
	b = append(b, op)
	b = binary.LittleEndian.AppendUint64(b, id)
	return binary.LittleEndian.AppendUint32(b, shard)
}

func appendRating(b []byte, r rating.Rating) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(r.Rater)))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(r.Ratee)))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(r.Cycle)))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(r.Category)))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Value))
	return binary.LittleEndian.AppendUint64(b, r.Seq)
}

func appendRatings(b []byte, rs []rating.Rating) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rs)))
	for _, r := range rs {
		b = appendRating(b, r)
	}
	return b
}

func appendEntries(b []byte, es []manager.BatchEntry) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(es)))
	for _, e := range es {
		b = appendRating(b, e.R)
		var flags byte
		if e.Replica {
			flags |= entryReplica
		}
		if e.Deferred {
			flags |= entryDeferred
		}
		b = append(b, flags)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// appendSnapshot encodes an interval snapshot as its ratings plus the max
// sequence mark. The per-pair frequency counters are fully derivable from the
// ratings (every ledger add updates both views), so the receiver recomputes
// them instead of shipping the map.
func appendSnapshot(b []byte, s rating.Snapshot) []byte {
	b = appendRatings(b, s.Ratings)
	return binary.LittleEndian.AppendUint64(b, s.MaxSeq)
}

// appendDrain encodes a drain reply: the primary snapshot, then the replica
// snapshot when the shard hosts a mirror.
func appendDrain(b []byte, ds manager.DrainSnapshots) []byte {
	b = appendSnapshot(b, ds.Primary)
	b = appendBool(b, ds.HasReplica)
	if ds.HasReplica {
		b = appendSnapshot(b, ds.Replica)
	}
	return b
}

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// ---- decode helpers ----

// wire is a bounds-checked cursor over one frame payload. The first failed
// read latches err and turns every subsequent accessor into a zero-value
// no-op, so decoders read straight through and check once at the end.
type wire struct {
	b   []byte
	off int
	err error
}

func (w *wire) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("%w: "+format, append([]any{ErrCorruptFrame}, args...)...)
	}
}

func (w *wire) take(n int) []byte {
	if w.err != nil {
		return nil
	}
	if n < 0 || len(w.b)-w.off < n {
		w.fail("need %d bytes, have %d", n, len(w.b)-w.off)
		return nil
	}
	p := w.b[w.off : w.off+n]
	w.off += n
	return p
}

func (w *wire) u8() byte {
	p := w.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (w *wire) u16() uint16 {
	p := w.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

func (w *wire) u32() uint32 {
	p := w.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (w *wire) u64() uint64 {
	p := w.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (w *wire) f64() float64 { return math.Float64frombits(w.u64()) }

func (w *wire) str() string {
	n := int(w.u16())
	p := w.take(n)
	if p == nil {
		return ""
	}
	return string(p)
}

// count reads a u32 element count and validates it against the bytes left at
// elemSize each, so a corrupt count cannot demand an absurd allocation.
func (w *wire) count(elemSize int) int {
	n := int(w.u32())
	if w.err != nil {
		return 0
	}
	if n < 0 || n*elemSize > len(w.b)-w.off {
		w.fail("element count %d exceeds remaining %d bytes", n, len(w.b)-w.off)
		return 0
	}
	return n
}

func (w *wire) rating() rating.Rating {
	return rating.Rating{
		Rater:    int(int32(w.u32())),
		Ratee:    int(int32(w.u32())),
		Cycle:    int(int32(w.u32())),
		Category: int(int32(w.u32())),
		Value:    w.f64(),
		Seq:      w.u64(),
	}
}

func (w *wire) ratings() []rating.Rating {
	n := w.count(ratingWireLen)
	if w.err != nil || n == 0 {
		return nil
	}
	rs := make([]rating.Rating, n)
	for i := range rs {
		rs[i] = w.rating()
	}
	return rs
}

func (w *wire) entries() []manager.BatchEntry {
	n := w.count(ratingWireLen + 1)
	if w.err != nil || n == 0 {
		return nil
	}
	es := make([]manager.BatchEntry, n)
	for i := range es {
		es[i].R = w.rating()
		flags := w.u8()
		es[i].Replica = flags&entryReplica != 0
		es[i].Deferred = flags&entryDeferred != 0
	}
	return es
}

func (w *wire) bool() bool { return w.u8() != 0 }

// snapshot decodes an interval snapshot, recomputing the per-pair frequency
// counters from the ratings — the exact inverse of the ledger's add path
// (Value>0 counts positive, Value<0 negative, zero counts neither).
func (w *wire) snapshot() rating.Snapshot {
	rs := w.ratings()
	maxSeq := w.u64()
	if w.err != nil {
		return rating.Snapshot{}
	}
	snap := rating.Snapshot{Ratings: rs, MaxSeq: maxSeq, Counts: make(map[rating.PairKey]rating.PairCounts)}
	for _, r := range rs {
		key := rating.PairKey{Rater: r.Rater, Ratee: r.Ratee}
		c := snap.Counts[key]
		if r.Value > 0 {
			c.Positive++
		} else if r.Value < 0 {
			c.Negative++
		}
		snap.Counts[key] = c
	}
	return snap
}

// drain decodes an appendDrain body.
func (w *wire) drain() manager.DrainSnapshots {
	ds := manager.DrainSnapshots{Primary: w.snapshot(), HasReplica: w.bool()}
	if ds.HasReplica {
		ds.Replica = w.snapshot()
	}
	return ds
}

// done returns the latched decode error, or an ErrCorruptFrame if the
// payload carries trailing bytes no field accounted for.
func (w *wire) done() error {
	if w.err != nil {
		return w.err
	}
	if w.off != len(w.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorruptFrame, len(w.b)-w.off)
	}
	return nil
}

// ---- message header ----

type msgHeader struct {
	op    byte
	id    uint64
	shard uint32
}

func parseHeader(payload []byte) (msgHeader, []byte, error) {
	if len(payload) < msgHeaderLen {
		return msgHeader{}, nil, fmt.Errorf("%w: payload %d bytes, header needs %d", ErrCorruptFrame, len(payload), msgHeaderLen)
	}
	h := msgHeader{
		op:    payload[0],
		id:    binary.LittleEndian.Uint64(payload[1:9]),
		shard: binary.LittleEndian.Uint32(payload[9:13]),
	}
	return h, payload[msgHeaderLen:], nil
}

// helloInfo is the opHello body: the overlay geometry this connection serves.
type helloInfo struct {
	version    byte
	numNodes   int
	replicated bool
	shards     []uint32
}

func appendHello(b []byte, h helloInfo) []byte {
	b = append(b, h.version)
	b = binary.LittleEndian.AppendUint32(b, uint32(h.numNodes))
	b = appendBool(b, h.replicated)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(h.shards)))
	for _, s := range h.shards {
		b = binary.LittleEndian.AppendUint32(b, s)
	}
	return b
}

func parseHello(body []byte) (helloInfo, error) {
	w := &wire{b: body}
	h := helloInfo{version: w.u8()}
	h.numNodes = int(int32(w.u32()))
	h.replicated = w.bool()
	n := w.count(4)
	if w.err == nil && n > 0 {
		h.shards = make([]uint32, n)
		for i := range h.shards {
			h.shards[i] = w.u32()
		}
	}
	return h, w.done()
}

// restartInfo is the opRestart body. floor covers the primary ledger's WAL
// records (drained primary high-water mark); replicaFloor covers the fated
// records feeding the replica mirror the shard hosts (drained replica
// high-water mark) — the two substrates drain on different schedules, so they
// replay against different floors.
type restartInfo struct {
	floor         uint64
	replicaFloor  uint64
	markRecovered bool
}

func appendRestart(b []byte, ri restartInfo) []byte {
	b = binary.LittleEndian.AppendUint64(b, ri.floor)
	b = binary.LittleEndian.AppendUint64(b, ri.replicaFloor)
	return appendBool(b, ri.markRecovered)
}

func (w *wire) restart() restartInfo {
	return restartInfo{floor: w.u64(), replicaFloor: w.u64(), markRecovered: w.bool()}
}

// ---- submit replies ----

// appendSubmitReply encodes an index-aligned per-entry error slice sparsely:
// total entry count, then only the non-nil slots as (index, message) pairs.
// A nil errs — the all-landed common case — costs eight bytes.
func appendSubmitReply(b []byte, n int, errs []error) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	nonNil := 0
	for _, e := range errs {
		if e != nil {
			nonNil++
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(nonNil))
	for i, e := range errs {
		if e != nil {
			b = binary.LittleEndian.AppendUint32(b, uint32(i))
			b = appendString(b, e.Error())
		}
	}
	return b
}

// parseSubmitReply reverses appendSubmitReply. Error messages cross the wire
// as strings and are rebuilt with errors.New: per-entry ledger errors are
// surfaced to callers by message (the typed overlay errors never ride in
// entry slots — transport-level failures travel out of band).
func parseSubmitReply(w *wire) (int, []error) {
	n := int(w.u32())
	m := w.count(4 + 2)
	if w.err != nil {
		return 0, nil
	}
	var errs []error
	for i := 0; i < m; i++ {
		idx := int(w.u32())
		msg := w.str()
		if w.err != nil {
			return 0, nil
		}
		if idx < 0 || idx >= n {
			w.fail("error index %d out of range %d", idx, n)
			return 0, nil
		}
		if errs == nil {
			errs = make([]error, n)
		}
		errs[idx] = errors.New(msg)
	}
	return n, errs
}

// ---- generic replies ----

// appendReplyHeader starts a reply frame body: echoed header plus status.
func appendReplyHeader(b []byte, op byte, id uint64, shard uint32, status byte) []byte {
	b = appendHeader(b, op|replyFlag, id, shard)
	return append(b, status)
}

// parseReplyStatus consumes the status byte (and error message, if any)
// after the header. A non-OK status yields the worker's error as a plain
// error value.
func parseReplyStatus(w *wire) error {
	switch st := w.u8(); {
	case w.err != nil:
		return w.err
	case st == statusOK:
		return nil
	default:
		msg := w.str()
		if w.err != nil {
			return w.err
		}
		return fmt.Errorf("cluster: remote error: %s", msg)
	}
}

// ParsePayload decodes one frame payload — request or reply, any op — and
// discards the result. It exists for the fuzz harness: every byte sequence
// DecodeFrames accepts must also parse without panicking, whichever message
// type it claims to be.
func ParsePayload(payload []byte) error {
	h, body, err := parseHeader(payload)
	if err != nil {
		return err
	}
	w := &wire{b: body}
	if h.op&replyFlag != 0 {
		if err := parseReplyStatus(w); err != nil {
			return err
		}
		switch h.op &^ replyFlag {
		case opSubmitPlain, opSubmitEntries:
			parseSubmitReply(w)
			return w.done()
		case opDrain:
			w.drain()
			return w.done()
		default:
			return w.done()
		}
	}
	switch h.op {
	case opHello:
		_, err := parseHello(body)
		return err
	case opSubmitPlain:
		w.ratings()
		return w.done()
	case opSubmitEntries:
		w.entries()
		return w.done()
	case opRestart:
		w.restart()
		return w.done()
	case opMark, opCompactWAL:
		w.u64()
		return w.done()
	case opDrain, opCrash, opResetWAL:
		return w.done()
	default:
		return fmt.Errorf("%w: unknown op %d", ErrCorruptFrame, h.op)
	}
}
