package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/gen"
)

// The per-name writer rule: every change to a dataset name — a mutation
// batch, an upload, a delete — makes itself durable and is published under
// the name's writer lock, so the catalog on disk always holds the versions
// the node acknowledged, in the order it acknowledged them. Each test below
// holds one write inside its durable step (Server.beforeDurable), issues a
// second write to the same name, and reboots a fresh server from a copy of
// the data dir.

// catalogNode serves fig5 (persisted at version 0) from a fresh data dir.
func catalogNode(t *testing.T) (*Server, http.Handler, string) {
	t.Helper()
	dir := t.TempDir()
	s := New(api.NewExplorer(), t.Logf)
	if err := s.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := s.exp.AddGraph("fig5", gen.Figure5())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PersistDataset(ds); err != nil {
		t.Fatal(err)
	}
	return s, s.Handler(), dir
}

// holdFirst makes the first durable step on s wait until the returned
// release is called; entered is closed once it waits. Later durable steps
// pass straight through.
func holdFirst(s *Server) (entered <-chan struct{}, release func()) {
	in, out := make(chan struct{}), make(chan struct{})
	first := true
	s.beforeDurable = func() {
		if first {
			first = false
			close(in)
			<-out
		}
	}
	return in, func() { close(out) }
}

// call is one request served in its own goroutine.
type call struct {
	done chan struct{}
	rec  *httptest.ResponseRecorder
}

func serve(h http.Handler, method, path string, body any) *call {
	b, _ := json.Marshal(body)
	c := &call{done: make(chan struct{}), rec: httptest.NewRecorder()}
	go func() {
		defer close(c.done)
		h.ServeHTTP(c.rec, httptest.NewRequest(method, path, bytes.NewReader(b)))
	}()
	return c
}

// wait returns the call's answer once it is in, failing unless it is 200.
func (c *call) wait(t *testing.T, what string) map[string]any {
	t.Helper()
	<-c.done
	var out map[string]any
	json.Unmarshal(c.rec.Body.Bytes(), &out)
	if c.rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", what, c.rec.Code, c.rec.Body)
	}
	return out
}

// queued reports whether c waits behind the held writer: true once a
// goroutine is parked taking a dataset name's writer lock, false if c
// finished first (or neither happened within a minute, so a renamed lock
// fails the caller's checks instead of hanging the test).
func queued(c *call) bool {
	buf := make([]byte, 1<<20)
	for start := time.Now(); time.Since(start) < time.Minute; {
		select {
		case <-c.done:
			return false
		default:
		}
		if bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("api.(*Explorer).Lock(")) {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// reboot copies the data dir, as a crash at this instant would leave it,
// and boots a fresh server from the copy.
func reboot(t *testing.T, dir string) *api.Explorer {
	t.Helper()
	cp := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	exp := api.NewExplorer()
	s := New(exp, t.Logf)
	if err := s.SetDataDir(cp); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadSnapshots(); err != nil {
		t.Fatal(err)
	}
	return exp
}

func addEdge(u, v int32) map[string]any { return map[string]any{"op": "addEdge", "u": u, "v": v} }

// TestWriteNeverAcksAheadOfAnEarlierWrite: write v1 is held inside its
// durable step and write v2 is submitted. v2 must not be acknowledged
// before v1, and a reboot from the data dir copied at every acknowledgment
// recovers at least the acknowledged version with all its edges. Without
// the writer lock v2 journals and acks first, and the reboot at that
// point stops at the gap v1 leaves and recovers version 0.
func TestWriteNeverAcksAheadOfAnEarlierWrite(t *testing.T) {
	s, h, dir := catalogNode(t)
	entered, release := holdFirst(s)
	const path = "/api/v1/datasets/fig5/mutations"
	w1 := serve(h, "POST", path, addEdge(0, 9))
	<-entered
	if cur, _ := reboot(t, dir).Dataset("fig5"); cur.Version != 0 {
		t.Fatalf("reboot with nothing acknowledged: version %d, want 0", cur.Version)
	}
	w2 := serve(h, "POST", path, addEdge(1, 9))
	if !queued(w2) {
		t.Errorf("write v2 acknowledged while write v1 was held in its durable step: %s", w2.rec.Body)
	}
	recovers := func(version uint64, edges ...[2]int32) {
		t.Helper()
		cur, _ := reboot(t, dir).Dataset("fig5")
		if cur.Version < version {
			t.Fatalf("acknowledged version %d, reboot recovered %d", version, cur.Version)
		}
		for _, e := range edges {
			if !cur.Graph.HasEdge(e[0], e[1]) {
				t.Fatalf("reboot lost acknowledged edge %v", e)
			}
		}
	}
	select {
	case <-w2.done: // only without the writer lock
		recovers(uint64(w2.wait(t, "write v2")["version"].(float64)), [2]int32{1, 9})
	default:
	}
	release()
	if v := w1.wait(t, "write v1")["version"]; v != 1.0 {
		t.Fatalf("write v1 acknowledged version %v", v)
	}
	recovers(1, [2]int32{0, 9})
	if v := w2.wait(t, "write v2")["version"]; v != 2.0 {
		t.Fatalf("write v2 acknowledged version %v", v)
	}
	recovers(2, [2]int32{0, 9}, [2]int32{1, 9})
}

// TestOldLineageWriteNeverReplaysOntoReupload: a write to fig5 is held in
// its durable step when fig5 is uploaded again. The upload waits for the
// write, and replaces its lineage; a reboot must serve the re-upload as the
// node did, without the write's edge. Without the writer lock the write's
// record lands after the upload's persist and replays onto the re-upload.
func TestOldLineageWriteNeverReplaysOntoReupload(t *testing.T) {
	s, h, dir := catalogNode(t)
	entered, release := holdFirst(s)
	w := serve(h, "POST", "/api/v1/datasets/fig5/mutations", addEdge(0, 9))
	<-entered
	up := serve(h, "PUT", "/api/v1/datasets/fig5", gen.Figure5().ToJSONGraph("fig5"))
	queued(up)
	release()
	w.wait(t, "write")
	up.wait(t, "upload")
	served, _ := s.exp.Dataset("fig5")
	if served.Version != 0 || served.Graph.HasEdge(0, 9) {
		t.Fatalf("node serves version %d, edge 0-9 %v; want the re-upload", served.Version, served.Graph.HasEdge(0, 9))
	}
	if cur, _ := reboot(t, dir).Dataset("fig5"); cur.Version != 0 || cur.Graph.HasEdge(0, 9) {
		t.Fatalf("reboot recovered version %d, edge 0-9 %v; the node served version 0 without it",
			cur.Version, cur.Graph.HasEdge(0, 9))
	}
}

// TestUploadPersistKeepsTheWriteAfterIt: an upload of a new name is held in
// its durable step when a write to that name arrives. The write waits for
// the upload and lands on it; a reboot must recover the acknowledged
// version 1. Without the writer lock the write is journaled and acked
// first, and the upload's persist then drops the journal.
func TestUploadPersistKeepsTheWriteAfterIt(t *testing.T) {
	s, h, dir := catalogNode(t)
	entered, release := holdFirst(s)
	up := serve(h, "PUT", "/api/v1/datasets/up", gen.Figure5().ToJSONGraph("up"))
	<-entered
	w := serve(h, "POST", "/api/v1/datasets/up/mutations", addEdge(0, 9))
	queued(w)
	release()
	up.wait(t, "upload")
	if v := w.wait(t, "write")["version"]; v != 1.0 {
		t.Fatalf("write acknowledged version %v, want 1", v)
	}
	cur, ok := reboot(t, dir).Dataset("up")
	if !ok {
		t.Fatal("reboot lost the upload")
	}
	if cur.Version != 1 || !cur.Graph.HasEdge(0, 9) {
		t.Fatalf("reboot recovered version %d, edge 0-9 %v; want the acknowledged version 1 with it",
			cur.Version, cur.Graph.HasEdge(0, 9))
	}
}

// TestUploadsOfOneNamePersistInOrder: two uploads of one name, the first
// held in its durable step. The second waits for it, so the catalog ends
// with the graph the node serves. Without the writer lock the first
// upload's persist lands last, and a reboot brings back the displaced graph.
func TestUploadsOfOneNamePersistInOrder(t *testing.T) {
	s, h, dir := catalogNode(t)
	entered, release := holdFirst(s)
	small := serve(h, "PUT", "/api/v1/datasets/two", gen.Figure5().ToJSONGraph("two"))
	<-entered
	large := serve(h, "PUT", "/api/v1/datasets/two", gen.GNMAttributed(40, 80, 6, 1).ToJSONGraph("two"))
	queued(large)
	release()
	small.wait(t, "first upload")
	large.wait(t, "second upload")
	served, _ := s.exp.Dataset("two")
	cur, ok := reboot(t, dir).Dataset("two")
	if !ok || cur.Graph.N() != served.Graph.N() {
		t.Fatalf("node serves %d vertices, reboot recovered %d (registered %v)", served.Graph.N(), cur.Graph.N(), ok)
	}
}
