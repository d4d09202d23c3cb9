// Package cluster moves manager shards out of process: worker daemons host
// shard ledgers (and their WALs) behind a socket, and a pipelined client
// implements manager.Transport so the overlay drives them through the same
// ShardConn operations the in-process loopback serves.
//
// # Wire format
//
// Every message travels in one frame, reusing the STWALv1 framing discipline
// from internal/persist:
//
//	[uint32 LE payload length][uint32 LE CRC32-C of payload][payload]
//
// The payload starts with a fixed header — op (1 byte), request ID
// (8 bytes LE), shard (4 bytes LE) — followed by the op-specific body
// (protocol.go). Replies carry op|0x80 and echo the request ID, so a client
// keeping many requests in flight matches replies by ID regardless of the
// order the worker's per-shard loops finish them in.
//
// Decoding never panics on arbitrary bytes — the same fuzz contract the WAL
// decoder honors: lengths are bounds-checked before allocation, payloads are
// CRC-verified before parsing, and every parse failure is an ErrCorruptFrame
// error.
package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	frameHeaderLen = 8
	// maxFramePayload bounds a frame so a corrupt or hostile length field
	// cannot demand an absurd allocation. The largest legitimate frame is a
	// drain reply carrying a full interval snapshot: ~36 bytes per rating
	// puts a 50k-node, 4-ratings-per-node interval shard at a few megabytes,
	// so 64 MiB leaves an order of magnitude of headroom.
	maxFramePayload = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptFrame reports a torn, truncated, or corrupt wire frame.
var ErrCorruptFrame = errors.New("cluster: corrupt frame")

// beginFrame returns buf reset to a reserved (zeroed) frame header, ready
// for payload appends. finishFrame fills the header in afterwards — the
// payload is encoded exactly once, in place, into a buffer the caller reuses.
func beginFrame(buf []byte) []byte {
	return append(buf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
}

// finishFrame stamps the frame header (payload length and CRC) over the
// bytes beginFrame reserved and returns the complete frame.
func finishFrame(buf []byte) []byte {
	payload := buf[frameHeaderLen:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	return buf
}

// readFrame reads one frame from br, reusing buf when it is large enough,
// and returns the verified payload. io.EOF is returned untouched on a clean
// boundary; anything else — torn header, implausible length, torn payload,
// checksum mismatch — wraps ErrCorruptFrame.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:1]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: torn header: %v", ErrCorruptFrame, err)
	}
	if _, err := io.ReadFull(br, hdr[1:]); err != nil {
		return nil, fmt.Errorf("%w: torn header: %v", ErrCorruptFrame, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if n == 0 || n > maxFramePayload {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorruptFrame, n)
	}
	payload := buf
	if cap(payload) < int(n) {
		payload = make([]byte, n)
	}
	payload = payload[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("%w: torn payload: %v", ErrCorruptFrame, err)
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptFrame)
	}
	mFramesRecv.Inc()
	mBytesRecv.Add(int64(frameHeaderLen) + int64(n))
	return payload, nil
}

// DecodeFrames reads framed payloads from r until EOF or the first invalid
// frame, returning the payloads decoded, the byte count of the valid prefix
// consumed, and a non-nil error wrapping ErrCorruptFrame if the stream ended
// in a torn or corrupt frame. It never panics on arbitrary input — the fuzz
// contract (FuzzClusterFrameDecode).
func DecodeFrames(r io.Reader) ([][]byte, int64, error) {
	br := bufio.NewReader(r)
	var (
		payloads [][]byte
		valid    int64
	)
	for {
		p, err := readFrame(br, nil)
		if err == io.EOF {
			return payloads, valid, nil
		}
		if err != nil {
			return payloads, valid, err
		}
		payloads = append(payloads, p)
		valid += int64(frameHeaderLen) + int64(len(p))
	}
}
