package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cexplorer/internal/api"
	"cexplorer/internal/gen"
	"cexplorer/internal/snapshot"
)

func searchFig5(t testing.TB, url string) []byte {
	t.Helper()
	var out struct {
		Communities []struct {
			Method         string   `json:"method"`
			Vertices       []int32  `json:"vertices"`
			SharedKeywords []string `json:"sharedKeywords"`
			Names          []string `json:"names"`
		} `json:"communities"`
	}
	resp := postJSON(t, url+"/api/v1/datasets/persisted/search", map[string]any{
		"algorithm": "ACQ", "names": []string{"A"}, "k": 2,
	}, &out)
	if resp.StatusCode != 200 {
		t.Fatalf("search status = %d", resp.StatusCode)
	}
	if len(out.Communities) == 0 {
		t.Fatalf("no communities")
	}
	b, _ := json.Marshal(out)
	return b
}

// TestWarmRestart is the serving half of the acceptance criterion: a server
// restarted against a populated -data.dir serves searches on its old
// datasets without re-upload, with identical results.
func TestWarmRestart(t *testing.T) {
	dir := t.TempDir()

	// --- first server: upload persists to the catalog ---
	exp1 := api.NewExplorer()
	s1 := New(exp1, nil)
	if err := s1.SetDataDir(dir); err != nil {
		t.Fatalf("set data dir: %v", err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	var up struct {
		Name           string  `json:"name"`
		PersistedBytes int64   `json:"persistedBytes"`
		PersistMS      float64 `json:"persistMs"`
	}
	resp := doJSON(t, "PUT", ts1.URL+"/api/v1/datasets/persisted", gen.Figure5().ToJSONGraph("persisted"), &up)
	if resp.StatusCode != 200 {
		t.Fatalf("upload status = %d", resp.StatusCode)
	}
	if up.PersistedBytes == 0 {
		t.Fatalf("upload did not persist: %+v", up)
	}
	path := filepath.Join(dir, "persisted"+snapshot.FileExt)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
	want := searchFig5(t, ts1.URL)
	ts1.Close()

	// --- second server: fresh explorer, same directory, no re-upload ---
	exp2 := api.NewExplorer()
	s2 := New(exp2, nil)
	if err := s2.SetDataDir(dir); err != nil {
		t.Fatalf("set data dir: %v", err)
	}
	loaded, err := s2.LoadSnapshots()
	if err != nil {
		t.Fatalf("load snapshots: %v", err)
	}
	if loaded != 1 {
		t.Fatalf("loaded %d snapshots, want 1", loaded)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	got := searchFig5(t, ts2.URL)
	if !bytes.Equal(want, got) {
		t.Fatalf("search results differ across restart:\nbefore: %s\nafter:  %s", want, got)
	}

	// The reloaded dataset must advertise its provenance and warm indexes.
	var info struct {
		Source  string `json:"source"`
		Indexes struct {
			CLTree bool `json:"cltree"`
			Core   bool `json:"core"`
			Truss  bool `json:"truss"`
		} `json:"indexes"`
	}
	doJSON(t, "GET", ts2.URL+"/api/v1/datasets/persisted", nil, &info)
	if info.Source != "snapshot" {
		t.Fatalf("source = %q, want snapshot", info.Source)
	}
	if !info.Indexes.CLTree || !info.Indexes.Core || !info.Indexes.Truss {
		t.Fatalf("indexes not pre-seeded: %+v", info.Indexes)
	}

	// Catalog activity and the catalog directory show up in /api/stats.
	var st StatsSnapshot
	doJSON(t, "GET", ts2.URL+"/api/stats", nil, &st)
	if st.Datasets != 1 || st.SnapshotLoads != 1 || st.SnapshotLoadMS <= 0 || st.DataDir != dir {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCorruptSnapshotSkippedAtBoot pins the availability property: one
// damaged catalog file is skipped with an error counter, the rest load.
func TestCorruptSnapshotSkippedAtBoot(t *testing.T) {
	dir := t.TempDir()

	ds := api.NewDataset("good", gen.Figure5())
	if _, err := ds.WriteSnapshotFile(filepath.Join(dir, "good"+snapshot.FileExt)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad"+snapshot.FileExt), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(api.NewExplorer(), nil)
	if err := s.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := s.LoadSnapshots()
	if err != nil {
		t.Fatalf("load snapshots: %v", err)
	}
	if loaded != 1 {
		t.Fatalf("loaded %d, want 1", loaded)
	}
	if got := s.Stats().SnapshotLoadErrors; got != 1 {
		t.Fatalf("load errors = %d, want 1", got)
	}
	if _, ok := s.Explorer().Dataset("good"); !ok {
		t.Fatalf("good dataset missing")
	}
}

// TestPersistDisabledWithoutDataDir: no data dir, uploads stay memory-only
// and report no persistence fields.
func TestPersistDisabledWithoutDataDir(t *testing.T) {
	_, ts := testServer(t)
	var up map[string]any
	resp := doJSON(t, "PUT", ts.URL+"/api/v1/datasets/mem", gen.Figure5().ToJSONGraph("mem"), &up)
	if resp.StatusCode != 200 {
		t.Fatalf("upload status = %d", resp.StatusCode)
	}
	for _, k := range []string{"persistedBytes", "persistMs"} {
		if _, present := up[k]; present {
			t.Fatalf("unexpected %s in response: %+v", k, up)
		}
	}
}

// TestSnapshotPathEscaping: dataset names with separators or dots cannot
// escape the catalog directory.
func TestSnapshotPathEscaping(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"../evil", "a/b", "c:\\d", ".."} {
		p := snapshotPath(dir, name)
		if !strings.HasPrefix(p, dir+string(filepath.Separator)) {
			t.Fatalf("name %q maps outside the catalog: %q", name, p)
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil || strings.Contains(rel, string(filepath.Separator)) || rel == ".." {
			t.Fatalf("name %q maps to nested/parent path %q", name, p)
		}
	}
}

// TestDeleteCleanupSparesReupload: a delete removes the catalog files under
// the name's writer lock, before it drops the registry entry, so an upload
// of the name issued meanwhile waits and lands after it. The upload's
// snapshot, and the journal of a write after it, survive; a later delete
// removes both.
func TestDeleteCleanupSparesReupload(t *testing.T) {
	s, h, dir := catalogNode(t)
	snap, journal := snapshotPath(dir, "fig5"), journalPath(dir, "fig5")
	exists := func(path string) bool { _, err := os.Stat(path); return err == nil }

	entered, release := holdFirst(s)
	del := serve(h, "DELETE", "/api/v1/datasets/fig5", nil)
	<-entered
	up := serve(h, "PUT", "/api/v1/datasets/fig5", gen.Figure5().ToJSONGraph("fig5"))
	queued(up)
	release()
	del.wait(t, "delete")
	up.wait(t, "re-upload")
	serve(h, "POST", "/api/v1/datasets/fig5/mutations", addEdge(0, 9)).wait(t, "write")
	if !exists(snap) || !exists(journal) {
		t.Fatalf("the delete removed the re-upload's files: snapshot %v, journal %v", exists(snap), exists(journal))
	}
	if cur, ok := reboot(t, dir).Dataset("fig5"); !ok || cur.Version != 1 {
		t.Fatalf("reboot lost the re-upload or its write (registered %v)", ok)
	}

	serve(h, "DELETE", "/api/v1/datasets/fig5", nil).wait(t, "second delete")
	if exists(snap) || exists(journal) {
		t.Fatalf("delete left files behind: snapshot %v, journal %v", exists(snap), exists(journal))
	}
	if _, ok := reboot(t, dir).Dataset("fig5"); ok {
		t.Fatal("deleted dataset back after reboot")
	}
}
