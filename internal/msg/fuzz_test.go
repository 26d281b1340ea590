// Fuzzing for the ring frame wire format: the header pack/parse pair,
// the frame builder, and the receiver-side peek classification. The
// frame format is the one contract both ends of a channel must agree
// on byte-for-byte — a drifting encode/decode pair corrupts rings in
// ways ordinary tests rarely reach.
package msg

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzFrameRoundTrip drives arbitrary payloads and sequence numbers
// through buildFrame and parseHeader and checks every frame invariant:
// header round-trip, cache-line alignment, zero padding, and the
// reserved-marker space staying clear of real payload lengths.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte(nil), uint32(0))
	f.Add([]byte("hello, tccluster"), uint32(1))
	f.Add(bytes.Repeat([]byte{0xA5}, 56), uint32(0xFFFFFFFF))
	f.Add(bytes.Repeat([]byte{1}, 57), uint32(7)) // first payload spilling to 2 lines
	f.Add(make([]byte, 4000), uint32(1<<31))
	f.Fuzz(func(t *testing.T, payload []byte, seq uint32) {
		if len(payload) > int(DefaultParams().RingBytes)-2*headerBytes {
			payload = payload[:int(DefaultParams().RingBytes)-2*headerBytes]
		}
		frame := buildFrame(payload, seq)
		if uint64(len(frame)) != frameSize(len(payload)) {
			t.Fatalf("frame is %d bytes, frameSize says %d", len(frame), frameSize(len(payload)))
		}
		if len(frame)%frameAlign != 0 {
			t.Fatalf("frame length %d not cache-line aligned", len(frame))
		}
		length, gotSeq := parseHeader(frame[:headerBytes])
		if int(length) != len(payload) || gotSeq != seq {
			t.Fatalf("header round-trip: got (len=%d, seq=%d), want (len=%d, seq=%d)",
				length, gotSeq, len(payload), seq)
		}
		// A real payload length must never collide with the reserved
		// markers the receiver switches on.
		if length == wrapMark || length == probeMark || length == fcMark {
			t.Fatalf("payload length %#x collides with a reserved marker", length)
		}
		if !bytes.Equal(frame[headerBytes:headerBytes+len(payload)], payload) {
			t.Fatal("payload bytes corrupted in frame image")
		}
		for _, b := range frame[headerBytes+len(payload):] {
			if b != 0 {
				t.Fatal("frame padding not zeroed")
			}
		}
		// packHeader must agree with buildFrame's inline encoding.
		if !bytes.Equal(packHeader(length, seq), frame[:headerBytes]) {
			t.Fatal("packHeader and buildFrame disagree on the header encoding")
		}
	})
}

// FuzzHeaderClassification feeds arbitrary 8-byte headers through the
// same classification the receiver's peek path applies and checks the
// categories are exhaustive and mutually exclusive: empty slot, wrap
// marker, ack probe, flow-control request, or a data frame whose length either fits the ring
// or is rejected as corrupt. None of the decisions may panic.
func FuzzHeaderClassification(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(wrapMark))
	f.Add(uint64(probeMark) | 7<<32)
	f.Add(uint64(fcMark) | 3<<32)
	f.Add(uint64(64) | 99<<32)
	f.Add(^uint64(0))
	f.Fuzz(func(t *testing.T, raw uint64) {
		h := make([]byte, headerBytes)
		binary.LittleEndian.PutUint64(h, raw)
		length, seq := parseHeader(h)
		if uint64(length)|uint64(seq)<<32 != raw {
			t.Fatalf("parseHeader lost bits: %#x -> (%#x, %#x)", raw, length, seq)
		}
		ring := DefaultParams().RingBytes
		switch {
		case length == 0: // empty slot: the poll spins
		case length == wrapMark: // wrap marker: jump to ring start
		case length == probeMark: // ack probe: repost the cumulative ack
		case length == fcMark: // flow-control request: post consumed bytes
		case uint64(length) <= ring-2*headerBytes:
			// Plausible data frame; its footprint must fit the ring, or
			// the flow-control invariant is broken.
			if frameSize(int(length)) > ring {
				t.Fatalf("accepted length %d implies %d-byte frame in a %d-byte ring",
					length, frameSize(int(length)), ring)
			}
		default:
			// Corrupt length: the receiver rejects it (ErrProtocol path)
			// rather than reading past the ring. Nothing to assert beyond
			// not panicking — but the arithmetic the receiver does first
			// must not overflow into an accept.
			if uint64(length) <= ring-2*headerBytes {
				t.Fatal("corrupt-length branch reached with an in-range length")
			}
		}
		// seqDelta must be antisymmetric for every header's sequence
		// against a few reference points (wraparound-safe compare).
		for _, ref := range []uint32{0, 1, seq, seq + 1, 1 << 31} {
			if d, nd := seqDelta(seq, ref), seqDelta(ref, seq); d != -nd {
				t.Fatalf("seqDelta not antisymmetric: delta(%d,%d)=%d, delta(%d,%d)=%d",
					seq, ref, d, ref, seq, nd)
			}
		}
	})
}
