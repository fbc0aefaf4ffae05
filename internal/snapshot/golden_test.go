package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// goldenSnapshot builds the deterministic snapshot behind the committed
// fixture: the paper's Figure 5 graph with every index, a fixed creation
// stamp, and a fixed version counter.
func goldenSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	s := fullSnapshot(t, "golden", testGraph(t))
	s.Version = 7
	s.Created = time.Unix(1700000000, 0).UTC()
	return s
}

// goldenV2 returns the committed v2 fixture, the only source of v2 bytes:
// no writer emits that layout any more.
func goldenV2(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden_v2.cxsnap"))
	if err != nil {
		t.Fatalf("missing v2 fixture: %v", err)
	}
	return data
}

// TestGoldenV2Fixture pins the legacy v2 wire format to a committed file:
// old snapshots written before the aligned v3 layout must keep opening, via
// the copy path, forever, and must upgrade cleanly to v3.
func TestGoldenV2Fixture(t *testing.T) {
	fixture := goldenV2(t)
	got, err := Decode(fixture)
	if err != nil {
		t.Fatalf("decode fixture: %v", err)
	}
	if got.Format != FormatV2 || got.ZeroCopy || got.Graph.Borrowed() {
		t.Fatalf("fixture decoded as Format=%d ZeroCopy=%v Borrowed=%v", got.Format, got.ZeroCopy, got.Graph.Borrowed())
	}
	if got.Name != "golden" || got.Version != 7 {
		t.Fatalf("fixture identity: %q v%d", got.Name, got.Version)
	}
	if want := time.Unix(1700000000, 0).UTC(); !got.Created.Equal(want) {
		t.Fatalf("fixture Created = %v, want %v", got.Created, want)
	}
	checkSnapshotEqual(t, goldenSnapshot(t), got)

	// The pre-v3 layout must refuse the view path with the fallback
	// sentinel, never a hard error, and Inspect must say why.
	if _, err := DecodeView(fixture); !errors.Is(err, ErrNotZeroCopy) {
		t.Fatalf("DecodeView(fixture) = %v, want ErrNotZeroCopy", err)
	}
	info, err := Inspect(bytes.NewReader(fixture))
	if err != nil {
		t.Fatalf("inspect fixture: %v", err)
	}
	if info.Version != FormatV2 || info.ZeroCopy || info.ZeroCopyReason == "" {
		t.Fatalf("fixture inspect: Version=%d ZeroCopy=%v reason=%q", info.Version, info.ZeroCopy, info.ZeroCopyReason)
	}

	// And the same dataset upgrades cleanly: decode v2, write v3, view it.
	view, err := DecodeView(encode(t, got))
	if err != nil {
		t.Fatalf("view of upgraded fixture: %v", err)
	}
	checkSnapshotEqual(t, got, view)
}
