package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestArchivedResultsReproduce is the drift gate for the archived
// scenario results: every scenario-results/*.json (written by `make
// scenario-smoke`) embeds the exact spec that ran and its fingerprint,
// and re-running that spec must reproduce the events, final virtual
// time, counter digest and workload output recorded there. A change in
// simulated behaviour therefore fails here until the archive is
// regenerated in the same change.
func TestArchivedResultsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs every archived scenario")
	}
	paths, err := filepath.Glob("../../scenario-results/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no archived results under scenario-results/")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var rec struct {
				Scenario     json.RawMessage `json:"scenario"`
				Result       Result          `json:"result"`
				OutputSHA256 string          `json:"output_sha256"`
			}
			if err := json.Unmarshal(data, &rec); err != nil {
				t.Fatal(err)
			}
			s, err := Parse(rec.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			res, err := s.Run(&out)
			if err != nil {
				t.Fatal(err)
			}
			want := rec.Result
			if !res.Fingerprint(&want) {
				t.Errorf("fingerprint drifted: archived events %d, virtual %d ps, %d clusters, digest %#x; now %d, %d ps, %d, %#x",
					want.EventsFired, want.FinalVirtualPS, want.Clusters, want.CounterDigest,
					res.EventsFired, res.FinalVirtualPS, res.Clusters, res.CounterDigest)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != rec.OutputSHA256 {
				t.Errorf("workload output drifted: sha256 %s, archived %s", got, rec.OutputSHA256)
			}
		})
	}
}
