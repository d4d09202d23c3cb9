package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"socialtrust/internal/manager"
	"socialtrust/internal/rating"
)

// testFrames builds a representative multi-frame stream: every payload shape
// the protocol sends, framed back to back the way a pipelined connection
// writes them.
func testFrames() ([][]byte, []byte) {
	var payloads [][]byte
	add := func(frame []byte) {
		payloads = append(payloads, append([]byte(nil), frame[frameHeaderLen:]...))
	}

	hello := finishFrame(appendHello(
		appendHeader(beginFrame(nil), opHello, 1, 0),
		helloInfo{version: protoVersion, numNodes: 64, replicated: true,
			shards: []uint32{0, 2}}))
	add(hello)

	rs := []rating.Rating{
		{Rater: 3, Ratee: 7, Value: 1, Cycle: 2, Category: 5, Seq: 41},
		{Rater: 9, Ratee: 3, Value: -1, Cycle: 2, Category: 1, Seq: 42},
	}
	submit := finishFrame(appendRatings(appendHeader(beginFrame(nil), opSubmitPlain, 2, 1), rs))
	add(submit)

	entries := finishFrame(appendEntries(appendHeader(beginFrame(nil), opSubmitEntries, 3, 1),
		[]manager.BatchEntry{{R: rs[0], Replica: true}, {R: rs[1], Deferred: true}}))
	add(entries)

	drainReply := appendReplyHeader(beginFrame(nil), opDrain, 4, 1, statusOK)
	drainReply = appendSnapshot(drainReply, rating.Snapshot{Ratings: rs, MaxSeq: 42})
	drainReply = appendBool(drainReply, false)
	drainReply = finishFrame(drainReply)
	add(drainReply)

	submitReply := appendReplyHeader(beginFrame(nil), opSubmitPlain, 2, 1, statusOK)
	submitReply = appendSubmitReply(submitReply, 2, []error{nil, errors.New("node out of range")})
	submitReply = finishFrame(submitReply)
	add(submitReply)

	var stream []byte
	stream = append(stream, hello...)
	stream = append(stream, submit...)
	stream = append(stream, entries...)
	stream = append(stream, drainReply...)
	stream = append(stream, submitReply...)
	return payloads, stream
}

func TestFrameRoundTrip(t *testing.T) {
	payloads, stream := testFrames()
	got, valid, err := DecodeFrames(bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("DecodeFrames on a clean stream: %v", err)
	}
	if valid != int64(len(stream)) {
		t.Fatalf("valid prefix %d, want %d", valid, len(stream))
	}
	if len(got) != len(payloads) {
		t.Fatalf("decoded %d payloads, want %d", len(got), len(payloads))
	}
	for i := range got {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Errorf("payload %d mismatch", i)
		}
		if err := ParsePayload(got[i]); err != nil {
			t.Errorf("ParsePayload(%d): %v", i, err)
		}
	}
}

// TestFrameTruncationEveryOffset cuts the stream at every byte offset. The
// decoder must return exactly the fully-contained frames; a cut inside a
// frame is a torn stream and must report ErrCorruptFrame — never panic.
func TestFrameTruncationEveryOffset(t *testing.T) {
	payloads, stream := testFrames()
	boundaries := map[int]int{0: 0} // offset -> frames complete at that offset
	off := 0
	for i, p := range payloads {
		off += frameHeaderLen + len(p)
		boundaries[off] = i + 1
	}
	for cut := 0; cut <= len(stream); cut++ {
		got, valid, err := DecodeFrames(bytes.NewReader(stream[:cut]))
		wantFrames, clean := boundaries[cut]
		if clean {
			if err != nil {
				t.Fatalf("cut %d (frame boundary): unexpected error %v", cut, err)
			}
			if len(got) != wantFrames {
				t.Fatalf("cut %d: decoded %d frames, want %d", cut, len(got), wantFrames)
			}
			if valid != int64(cut) {
				t.Fatalf("cut %d: valid prefix %d", cut, valid)
			}
			continue
		}
		if err == nil || !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("cut %d (mid-frame): error %v, want ErrCorruptFrame", cut, err)
		}
		for i := range got {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("cut %d: decoded frame %d does not match the original", cut, i)
			}
		}
	}
}

// TestFrameCorruptionEveryByte flips each byte of the stream in turn. The
// checksum must reject the damaged frame (ErrCorruptFrame, no panic), and
// every frame decoded before the damage must be intact.
func TestFrameCorruptionEveryByte(t *testing.T) {
	payloads, stream := testFrames()
	for i := 0; i < len(stream); i++ {
		mut := append([]byte(nil), stream...)
		mut[i] ^= 0xFF
		got, _, err := DecodeFrames(bytes.NewReader(mut))
		if err == nil || !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("byte %d flipped: error %v, want ErrCorruptFrame", i, err)
		}
		if len(got) >= len(payloads) {
			t.Fatalf("byte %d flipped: all %d frames decoded despite corruption", i, len(got))
		}
		for j := range got {
			if !bytes.Equal(got[j], payloads[j]) {
				t.Fatalf("byte %d flipped: surviving frame %d corrupted silently", i, j)
			}
		}
	}
}

func TestFrameImplausibleLength(t *testing.T) {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxFramePayload+1)
	if _, _, err := DecodeFrames(bytes.NewReader(hdr[:])); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("oversized length: %v, want ErrCorruptFrame", err)
	}
	binary.LittleEndian.PutUint32(hdr[0:4], 0)
	if _, _, err := DecodeFrames(bytes.NewReader(hdr[:])); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("zero length: %v, want ErrCorruptFrame", err)
	}
}

// TestParsePayloadTrailingBytes checks the strict-length contract: a payload
// with bytes no field accounts for is corrupt, not silently accepted.
func TestParsePayloadTrailingBytes(t *testing.T) {
	p := appendU64(appendHeader(nil, opMark, 7, 0), 3)
	if err := ParsePayload(p); err != nil {
		t.Fatalf("clean mark payload: %v", err)
	}
	if err := ParsePayload(append(p, 0)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("trailing byte: %v, want ErrCorruptFrame", err)
	}
}

// TestSubmitReplyRoundTrip exercises the sparse error encoding both ways.
func TestSubmitReplyRoundTrip(t *testing.T) {
	errs := []error{nil, errors.New("a"), nil, errors.New("b")}
	b := appendSubmitReply(nil, len(errs), errs)
	w := &wire{b: b}
	n, got := parseSubmitReply(w)
	if err := w.done(); err != nil {
		t.Fatal(err)
	}
	if n != 4 || len(got) != 4 || got[0] != nil || got[2] != nil ||
		got[1].Error() != "a" || got[3].Error() != "b" {
		t.Fatalf("round trip mismatch: n=%d errs=%v", n, got)
	}

	b = appendSubmitReply(nil, 3, nil)
	w = &wire{b: b}
	n, got = parseSubmitReply(w)
	if err := w.done(); err != nil {
		t.Fatal(err)
	}
	if n != 3 || got != nil {
		t.Fatalf("nil errs round trip: n=%d errs=%v", n, got)
	}
}
