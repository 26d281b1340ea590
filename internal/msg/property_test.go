package msg

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// propertyPayload is message i of a randomized run: a size drawn to
// cover single-slot frames, multi-slot frames and near-ring-sized
// frames, filled with bytes unique to i so a duplicate, a reordering or
// a torn frame cannot pass for the right message.
func propertyPayload(rng *rand.Rand, i, max int) []byte {
	var n int
	switch k := rng.Intn(10); {
	case k < 4: // one 64-byte slot with its header
		n = 1 + rng.Intn(frameAlign-headerBytes)
	case k < 8:
		n = frameAlign - headerBytes + 1 + rng.Intn(512)
	default: // up to the whole ring: most of these need a wrap
		n = 1 + rng.Intn(max)
	}
	p := make([]byte, n)
	for j := range p {
		p[j] = byte(i*131 + j*7 + i>>8)
	}
	return p
}

// TestChannelPropertyRandomized drives hundreds of random-size messages
// through a 1 KB ring, so the run spans about a hundred ring laps, every
// frame size class and many wrap remainders (frames that do not fit the
// space left before the ring's end). It checks the ring protocol's
// invariants in every receive mode: each message arrives exactly once
// and in order, with no sequence errors, and on a lossless fabric byte
// for byte. The doorbell modes run both the receiver's ring watch and
// the sender's flow-control watch. The reliable runs pull the cable
// mid-stream, so frames, acks and flow-control updates are lost and
// go-back-N must recover them. Their payload bytes are not compared: a
// frame whose payload stores die with the link while its header store
// crosses after the link returns is delivered torn, a known defect of
// the reliable protocol (no payload checksum).
func TestChannelPropertyRandomized(t *testing.T) {
	modes := []struct {
		name   string
		par    Params
		outage bool
	}{
		{"spin", Params{}, false},
		{"doorbell", Params{Doorbell: true}, false},
		{"reliable-spin-outage", Params{Reliable: true}, true},
		{"reliable-doorbell-outage", Params{Doorbell: true, Reliable: true}, true},
	}
	const n = 400
	for _, m := range modes {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", m.name, seed), func(t *testing.T) {
				c, os := rig(t, 2)
				par := m.par
				par.RingBytes = 1024
				s, r, err := Open(os, 0, 1, par)
				if err != nil {
					t.Fatal(err)
				}
				if m.outage {
					at := c.Now() + 10*sim.Microsecond
					inj, err := fault.NewInjector(c, fault.NewCampaign(
						fault.LinkDownFor(0, at, 40*sim.Microsecond)))
					if err != nil {
						t.Fatal(err)
					}
					c.SetActionSource(inj)
				}
				rng := rand.New(rand.NewSource(seed))
				want := make([][]byte, n)
				for i := range want {
					want[i] = propertyPayload(rng, i, s.MaxMessage())
				}

				got := 0
				var recv func()
				recv = func() {
					r.Recv(func(d []byte, err error) {
						if err != nil {
							t.Errorf("recv %d: %v", got, err)
							return
						}
						if got >= n {
							t.Errorf("message beyond the %d sent: %d bytes", n, len(d))
							return
						}
						if len(d) != len(want[got]) || !m.outage && !bytes.Equal(d, want[got]) {
							t.Errorf("message %d: got %d bytes, want %d (reordered, duplicated or torn)",
								got, len(d), len(want[got]))
						}
						got++
						if got < n {
							recv()
						}
					})
				}
				recv()
				sent := 0
				for i := range want {
					s.Send(want[i], func(err error) {
						if err != nil {
							t.Errorf("send: %v", err)
							return
						}
						sent++
					})
				}
				c.Run()

				if got != n || sent != n {
					t.Fatalf("delivered %d, completed %d sends, of %d", got, sent, n)
				}
				ss, rs := s.Stats(), r.Stats()
				if rs.SeqErrors != 0 {
					t.Errorf("receiver saw %d sequence errors", rs.SeqErrors)
				}
				if rs.Messages != n {
					t.Errorf("receiver counted %d messages, want %d", rs.Messages, n)
				}
				if laps := ss.Bytes / par.RingBytes; laps < 50 || ss.WrapFrames < 20 {
					t.Errorf("run covered %d ring laps and %d wrap frames; want many of each", laps, ss.WrapFrames)
				}
				if m.outage {
					var lost uint64
					for k, v := range c.Metrics().Counters {
						if k.Name == "nb.dead_link_drops" || k.Name == "port.aborted_pkts" {
							lost += v
						}
					}
					if lost == 0 {
						t.Error("the outage destroyed no packets: it missed the stream")
					}
				}
			})
		}
	}
}

// TestFlowControlLiveness pins the two flow-control liveness cases the
// randomized test found, on a 1 KB ring (FCThreshold 256). A 1008-byte
// message after a 100-byte one cannot share the ring with its wrap
// padding: it must wrap first, then wait for the whole ring. Three
// 192-byte frames leave 192 consumed bytes unreported, below the
// threshold, and the following wrapping 512-byte frame needs them: the
// sender must ask the receiver to post them.
func TestFlowControlLiveness(t *testing.T) {
	cases := []struct {
		name  string
		sizes []int
	}{
		{"wrap-first", []int{100, 1008, 100, 1008}},
		{"below-threshold", []int{184, 184, 184, 504}},
	}
	for _, tc := range cases {
		for _, bell := range []bool{false, true} {
			c, os := rig(t, 2)
			s, r, err := Open(os, 0, 1, Params{RingBytes: 1024, Doorbell: bell})
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			var recv func()
			recv = func() {
				r.Recv(func(d []byte, err error) {
					if err != nil || len(d) != tc.sizes[got] {
						t.Errorf("%s doorbell=%v: message %d: %d bytes, %v", tc.name, bell, got, len(d), err)
						return
					}
					if got++; got < len(tc.sizes) {
						recv()
					}
				})
			}
			recv()
			for _, n := range tc.sizes {
				s.Send(make([]byte, n), func(err error) {
					if err != nil {
						t.Errorf("send: %v", err)
					}
				})
			}
			c.RunFor(sim.Millisecond)
			if got != len(tc.sizes) {
				t.Errorf("%s doorbell=%v: delivered %d of %d messages", tc.name, bell, got, len(tc.sizes))
			}
		}
	}
}
