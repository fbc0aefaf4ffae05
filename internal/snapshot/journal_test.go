package snapshot

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// drainJournal reads the journal at path through a cursor until io.EOF or
// the first hard error, returning the records, the error (nil at a clean or
// torn end) and the cursor's final Offset and Pending.
func drainJournal(t testing.TB, path string) (recs []JournalRecord, off, pending int64, err error) {
	t.Helper()
	c := OpenJournalCursor(path)
	defer c.Close()
	for {
		rec, nerr := c.Next()
		if nerr == io.EOF {
			break
		}
		if nerr != nil {
			err = nerr
			break
		}
		recs = append(recs, rec)
	}
	return recs, c.Offset(), c.Pending(), err
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.cxjournal")
	recs := []JournalRecord{
		{Version: 1, Ops: []JournalOp{{Kind: JournalAddEdge, U: 0, V: 7}}},
		{Version: 2, Ops: []JournalOp{
			{Kind: JournalAddVertex, Name: "alice", Keywords: []string{"graphs", "cores"}},
			{Kind: JournalAddEdge, U: 9, V: 3},
		}},
		{Version: 3, Ops: []JournalOp{{Kind: JournalRemoveEdge, U: 0, V: 7}}},
	}
	for _, r := range recs {
		if err := AppendJournal(path, r); err != nil {
			t.Fatal(err)
		}
	}
	got, _, pending, err := drainJournal(t, path)
	if err != nil || pending != 0 {
		t.Fatalf("read: %v (pending %d)", err, pending)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Version != recs[i].Version || len(got[i].Ops) != len(recs[i].Ops) {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
		for j := range recs[i].Ops {
			w, g := recs[i].Ops[j], got[i].Ops[j]
			if w.Kind != g.Kind || w.U != g.U || w.V != g.V || w.Name != g.Name ||
				len(w.Keywords) != len(g.Keywords) {
				t.Fatalf("record %d op %d: %+v != %+v", i, j, g, w)
			}
		}
	}
}

func TestJournalMissingAndEmpty(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.cxjournal")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, "absent.cxjournal"), empty} {
		recs, off, pending, err := drainJournal(t, path)
		if err != nil || recs != nil || off != 0 || pending != 0 {
			t.Fatalf("%s: recs=%v off=%d pending=%d err=%v", filepath.Base(path), recs, off, pending, err)
		}
	}
}

// TestJournalCrashTail simulates a crash mid-append: every truncation of a
// valid journal must read cleanly, yielding exactly the records whose
// frames survived whole and reporting the rest as pending torn bytes.
func TestJournalCrashTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.cxjournal")
	ends := []int64{journalHeaderLen} // file offset after each record
	for v := uint64(1); v <= 3; v++ {
		if err := AppendJournal(path, JournalRecord{Version: v, Ops: []JournalOp{
			{Kind: JournalAddEdge, U: int32(v), V: int32(v + 1)},
		}}); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, st.Size())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cutPath := filepath.Join(dir, "cut.cxjournal")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, off, pending, err := drainJournal(t, cutPath)
		if err != nil {
			t.Fatalf("cut at %d: unexpected error %v", cut, err)
		}
		want := 0
		for want < 3 && ends[want+1] <= int64(cut) {
			want++
		}
		if len(recs) != want {
			t.Fatalf("cut at %d: %d records, want %d", cut, len(recs), want)
		}
		for i, r := range recs {
			if r.Version != uint64(i+1) {
				t.Fatalf("cut at %d: record %d has version %d", cut, i, r.Version)
			}
		}
		if off+pending != int64(cut) {
			t.Fatalf("cut at %d: Offset %d + Pending %d != file size", cut, off, pending)
		}
		if cut >= journalHeaderLen && off != ends[want] {
			t.Fatalf("cut at %d: Offset %d, want %d", cut, off, ends[want])
		}
	}

	// A flipped byte inside the final frame must drop exactly that frame.
	dam := append([]byte(nil), data...)
	dam[len(dam)-6] ^= 0xff
	if err := os.WriteFile(cutPath, dam, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, off, pending, err := drainJournal(t, cutPath)
	if err != nil {
		t.Fatalf("damaged tail: %v", err)
	}
	if len(recs) != 2 || off != ends[2] || pending != ends[3]-ends[2] {
		t.Fatalf("damaged tail: %d records, offset %d, %d pending bytes", len(recs), off, pending)
	}
}

// TestJournalCorruptBody: a frame that checksums clean but whose body is
// malformed is corruption, not a crash tail — the cursor stops before it
// with a hard error, having returned every record ahead of it.
func TestJournalCorruptBody(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.cxjournal")
	for _, rec := range []JournalRecord{
		{Version: 1, Ops: []JournalOp{{Kind: JournalAddEdge, U: 0, V: 1}}},
		{Version: 2, Ops: []JournalOp{{Kind: 99}}}, // unknown op kind
		{Version: 3, Ops: []JournalOp{{Kind: JournalAddEdge, U: 1, V: 2}}},
	} {
		if err := AppendJournal(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	recs, off, pending, err := drainJournal(t, path)
	if !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("corrupt body: err = %v, want ErrJournalCorrupt", err)
	}
	if len(recs) != 1 || recs[0].Version != 1 || pending == 0 || off == journalHeaderLen {
		t.Fatalf("corrupt body: %d records, offset %d, pending %d", len(recs), off, pending)
	}
}
