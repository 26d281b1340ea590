package experiments

import (
	"reflect"
	"testing"

	"repro/internal/stats"
)

// TestGoldenRows pins the exact rows of the experiments that time a
// store's landing or a packet's link stages: E17 and E18, E3 (per-hop
// adder), E9 (link speed sweep) and E13 (mesh traffic). Shape tests
// only bound these numbers; a change to how landing and link stages
// are observed must not move them by a single digit.
func TestGoldenRows(t *testing.T) {
	cases := []struct {
		name string
		run  func() (*stats.Table, error)
		want [][]string
	}{
		{"LatencyBreakdown", LatencyBreakdown, [][]string{
			{"store issue + WC fill", "2.9", "8 x 64-bit stores into one WC buffer"},
			{"SRQ/XBar to link", "17.0", "system request queue + crossbar"},
			{"serialization + flight", "30.7", "72 wire bytes at 3.2 GB/s + cable"},
			{"rx XBar + IO bridge + DRAM", "95.0", "ncHT->cHT conversion + memory write"},
			{"poll detect (min)", "77.0", "one uncached DRAM read + pipeline"},
			{"TOTAL (min)", "222.6", "matches Fig.7's floor; +0..97ns poll phase"},
		}},
		{"SupernodeTransit", SupernodeTransit, [][]string{
			{"0", "301", "2913"},
			{"1", "272", "2894"},
			{"2", "243", "2875"},
			{"3", "214", "2857"},
		}},
		{"HopLatency", func() (*stats.Table, error) { return HopLatency(4) }, [][]string{
			{"1", "146", "-"},
			{"2", "193", "48"},
			{"3", "241", "48"},
			{"4", "289", "48"},
		}},
		{"LinkSpeedSweep", LinkSpeedSweep, [][]string{
			{"HT200x8", "0.4", "0.4", "354", "304"},
			{"HT400x8", "0.8", "0.8", "708", "214"},
			{"HT800x8", "1.6", "1.6", "1416", "168"},
			{"HT1600x8", "3.2", "3.2", "2830", "146"},
			{"HT2400x8", "4.8", "4.8", "4243", "138"},
			{"HT2600x8", "5.2", "5.2", "4596", "137"},
			{"HT200x16", "0.4", "0.8", "708", "214"},
			{"HT400x16", "0.8", "1.6", "1416", "168"},
			{"HT800x16", "1.6", "3.2", "2830", "146"},
			{"HT1600x16", "3.2", "6.4", "5654", "134"},
			{"HT2400x16", "4.8", "9.6", "8009", "130"},
			{"HT2600x16", "5.2", "10.4", "8087", "130"},
		}},
		{"MeshTraffic", func() (*stats.Table, error) { return MeshTraffic(8 << 10) }, [][]string{
			{"nearest-neighbor", "16", "38.49", "1.00x", "85%"},
			{"transpose", "12", "10.80", "0.28x", "95%"},
			{"uniform-random", "16", "12.21", "0.32x", "81%"},
			{"hotspot", "15", "5.26", "0.14x", "99%"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tab.Rows, tc.want) {
				t.Errorf("rows drifted:\ngot:  %q\nwant: %q", tab.Rows, tc.want)
			}
		})
	}
}
