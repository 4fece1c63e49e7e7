package wire

import (
	"bytes"
	"testing"

	"repro/internal/fj"
)

// FuzzReadFrame feeds arbitrary bytes to the frame reader and, when a
// frame parses, checks the invariants the server relies on: the payload
// round-trips through AppendFrame to the same bytes, and an Events
// payload decodes to events that re-encode/re-decode stably.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, FrameFinish, nil))
	f.Add(AppendFrame(nil, FrameEvents, EncodeEventsSeq(nil, 1, sampleEvents())))
	f.Add(AppendFrame(nil, FrameHello, EncodeHello(Hello{Engine: "2d", BatchSize: 64})))
	f.Add([]byte{byte(FrameEvents), 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})
	// The resume vocabulary: sequenced events, resume handshake, acks,
	// heartbeats.
	f.Add(AppendFrame(nil, FrameEvents, EncodeEventsSeq(nil, 3, sampleEvents())))
	f.Add(AppendFrame(nil, FrameHello, EncodeHello(Hello{Engine: "2d", BatchSize: 64, Token: 0xabcdef})))
	f.Add(AppendFrame(nil, FrameWelcome, EncodeWelcome(Welcome{Session: 9, Token: 1 << 50, NextSeq: 17})))
	f.Add(AppendFrame(nil, FrameAck, EncodeAck(1<<20)))
	f.Add(AppendFrame(nil, FrameHeartbeat, nil))
	// Capability handshakes and compressed blocks.
	f.Add(AppendFrame(nil, FrameHello, EncodeHello(Hello{Engine: "2d", BatchSize: 64, Token: 7, Caps: CapCompress})))
	f.Add(AppendFrame(nil, FrameWelcome, EncodeWelcome(Welcome{Session: 2, Token: 0xbeef, NextSeq: 1, Caps: CapCompress})))
	f.Add(AppendFrame(nil, FrameEventsBlock, new(BlockEncoder).AppendBlock(nil, 11, sampleEvents())))

	f.Fuzz(func(t *testing.T, data []byte) {
		ft, payload, err := ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			return // malformed input must only error, never panic
		}
		// A parsed frame must re-encode to a prefix of the input.
		again := AppendFrame(nil, ft, payload)
		if len(again) > len(data) || !bytes.Equal(again, data[:len(again)]) {
			t.Fatalf("re-encoded frame is not a prefix of the input")
		}
		if ft != FrameEvents {
			return
		}
		seq, events, err := DecodeEventsSeq(nil, payload)
		if err != nil {
			return // malformed input must only error, never panic
		}
		reenc := EncodeEventsSeq(nil, seq, events)
		_, back, err := DecodeEventsSeq(nil, reenc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded events failed: %v", err)
		}
		if len(back) != len(events) {
			t.Fatalf("re-decode yielded %d events, want %d", len(back), len(events))
		}
		for i := range events {
			if back[i] != events[i] {
				t.Fatalf("event %d: %v != %v", i, back[i], events[i])
			}
		}
	})
}

// FuzzResume feeds arbitrary bytes to every session-protocol payload
// decoder raced and racedctl run on network input — Hello, Welcome, Ack
// and sequenced Events, the handshake/sequence/ack/token vocabulary a
// hostile or corrupted peer controls — and checks the decoders only
// ever error, never panic, and that anything they accept round-trips
// stably through the encoders.
func FuzzResume(f *testing.F) {
	f.Add(EncodeHello(Hello{Engine: "2d", BatchSize: 64, Token: 42, Caps: CapCompress | CapTenant, RouteKey: 3, Auth: "acme:k"}))
	f.Add(EncodeWelcome(Welcome{Session: 1, Token: 0xdead, NextSeq: 2, Caps: CapCompress}))
	f.Add(EncodeAck(7))
	f.Add(EncodeEventsSeq(nil, 5, sampleEvents()))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := DecodeHello(data); err == nil {
			if got, err := DecodeHello(EncodeHello(h)); err != nil || got != h {
				t.Fatalf("hello round trip: %+v -> %+v (%v)", h, got, err)
			}
		}
		if w, err := DecodeWelcome(data); err == nil {
			if got, err := DecodeWelcome(EncodeWelcome(w)); err != nil || got != w {
				t.Fatalf("welcome round trip: %+v -> %+v (%v)", w, got, err)
			}
		}
		if seq, err := DecodeAck(data); err == nil {
			if got, err := DecodeAck(EncodeAck(seq)); err != nil || got != seq {
				t.Fatalf("ack round trip: %d -> %d (%v)", seq, got, err)
			}
		}
		if seq, events, err := DecodeEventsSeq(nil, data); err == nil {
			if seq == 0 {
				t.Fatal("decoder accepted sequence 0")
			}
			again, back, err := DecodeEventsSeq(nil, EncodeEventsSeq(nil, seq, events))
			if err != nil || again != seq || len(back) != len(events) {
				t.Fatalf("events seq round trip: seq %d/%d, %d/%d events (%v)",
					seq, again, len(events), len(back), err)
			}
		}
	})
}

// FuzzDecodeRepl feeds arbitrary bytes to the four replication payload
// decoders — the bytes a follower reads from a primary and a primary
// reads back from a follower — and checks they only ever error, never
// panic, and that anything they accept round-trips stably through the
// encoders.
func FuzzDecodeRepl(f *testing.F) {
	var chain [ChainHashSize]byte
	for i := range chain {
		chain[i] = byte(i * 7)
	}
	f.Add(EncodeReplHello(ReplHello{SourceID: "primary-1", Key: "rk"}))
	f.Add(EncodeReplWelcome(ReplWelcome{Next: 12, Chain: chain}))
	f.Add(EncodeReplRecord(nil, ReplRecord{Index: 4, Framed: []byte("framed record bytes")}))
	f.Add(EncodeReplAck(1 << 33))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := DecodeReplHello(data); err == nil {
			if got, err := DecodeReplHello(EncodeReplHello(h)); err != nil || got != h {
				t.Fatalf("repl hello round trip: %+v -> %+v (%v)", h, got, err)
			}
		}
		if w, err := DecodeReplWelcome(data); err == nil {
			if got, err := DecodeReplWelcome(EncodeReplWelcome(w)); err != nil || got != w {
				t.Fatalf("repl welcome round trip: %+v -> %+v (%v)", w, got, err)
			}
		}
		if r, err := DecodeReplRecord(data); err == nil {
			if len(r.Framed) == 0 {
				t.Fatal("repl record decoder accepted an empty record")
			}
			got, err := DecodeReplRecord(EncodeReplRecord(nil, r))
			if err != nil || got.Index != r.Index || !bytes.Equal(got.Framed, r.Framed) {
				t.Fatalf("repl record round trip: %d/%x -> %d/%x (%v)", r.Index, r.Framed, got.Index, got.Framed, err)
			}
		}
		if next, err := DecodeReplAck(data); err == nil {
			if got, err := DecodeReplAck(EncodeReplAck(next)); err != nil || got != next {
				t.Fatalf("repl ack round trip: %d -> %d (%v)", next, got, err)
			}
		}
	})
}

// FuzzDecodeBlock feeds arbitrary bytes to the block decompressor — the
// payload a hostile or corrupted peer controls — and checks it only
// ever errors, never panics, and that anything it accepts re-encodes to
// a block that decodes back to the same events (the codec is stable
// even if the accepted byte form differs from what our encoder emits).
func FuzzDecodeBlock(f *testing.F) {
	var enc BlockEncoder
	f.Add(enc.AppendBlock(nil, 1, nil))
	f.Add(enc.AppendBlock(nil, 2, sampleEvents()))
	repetitive := make([]fj.Event, 300)
	for i := range repetitive {
		repetitive[i] = fj.Event{Kind: fj.EvRead + fj.EventKind(i%2), T: i % 3, Loc: fj.Addr(0x100 + i%7)}
	}
	f.Add(enc.AppendBlock(nil, 3, repetitive))
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1, blockDelta, 2, 200})
	f.Add([]byte{1, 1, 1, blockFlate, 0xff})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		var dec BlockDecoder
		seq, events, rawLen, err := dec.DecodeBlockInto(nil, data)
		if err != nil {
			return // malformed input must only error, never panic
		}
		if seq == 0 {
			t.Fatal("decoder accepted sequence 0")
		}
		if rawLen > MaxFrameSize {
			t.Fatalf("decoder accepted raw length %d", rawLen)
		}
		var enc2 BlockEncoder
		again := enc2.AppendBlock(nil, seq, events)
		var dec2 BlockDecoder
		seq2, back, _, err := dec2.DecodeBlockInto(nil, again)
		if err != nil {
			t.Fatalf("re-decode of re-encoded block failed: %v", err)
		}
		if seq2 != seq || len(back) != len(events) {
			t.Fatalf("block round trip: seq %d/%d, %d/%d events", seq, seq2, len(events), len(back))
		}
		for i := range events {
			if back[i] != events[i] {
				t.Fatalf("event %d: %v != %v", i, back[i], events[i])
			}
		}
	})
}
