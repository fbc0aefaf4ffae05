package snapshot

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func cursorRec(version uint64, u, v int32) JournalRecord {
	return JournalRecord{Version: version, Ops: []JournalOp{{Kind: JournalAddEdge, U: u, V: v}}}
}

func TestJournalCursorMissingFileIsEOF(t *testing.T) {
	c := OpenJournalCursor(filepath.Join(t.TempDir(), "nope.cxjournal"))
	defer c.Close()
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("Next on missing file = %v, want io.EOF", err)
	}
}

func TestJournalCursorTailsAcrossAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.cxjournal")
	c := OpenJournalCursor(path)
	defer c.Close()

	if err := AppendJournal(path, cursorRec(1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	rec, err := c.Next()
	if err != nil || rec.Version != 1 {
		t.Fatalf("Next = %+v, %v; want version 1", rec, err)
	}
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("caught-up Next = %v, want io.EOF", err)
	}

	// Records appended after the cursor hit EOF must become visible.
	if err := AppendJournal(path, cursorRec(2, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := AppendJournal(path, cursorRec(3, 2, 3)); err != nil {
		t.Fatal(err)
	}
	for want := uint64(2); want <= 3; want++ {
		rec, err := c.Next()
		if err != nil || rec.Version != want {
			t.Fatalf("Next = %+v, %v; want version %d", rec, err, want)
		}
	}
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("final Next = %v, want io.EOF", err)
	}
	if got := c.Pending(); got != 0 {
		t.Fatalf("Pending = %d, want 0", got)
	}
}

func TestJournalCursorTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.cxjournal")
	if err := AppendJournal(path, cursorRec(1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := AppendJournal(path, cursorRec(2, 1, 2)); err != nil {
		t.Fatal(err)
	}
	// Chop bytes off the final frame: a crash mid-append.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < 12; cut += 3 {
		torn := filepath.Join(t.TempDir(), "torn.cxjournal")
		if err := os.WriteFile(torn, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c := OpenJournalCursor(torn)
		rec, err := c.Next()
		if err != nil || rec.Version != 1 {
			t.Fatalf("cut=%d: first Next = %+v, %v", cut, rec, err)
		}
		if _, err := c.Next(); err != io.EOF {
			t.Fatalf("cut=%d: torn-tail Next = %v, want io.EOF", cut, err)
		}
		if c.Pending() == 0 {
			t.Fatalf("cut=%d: Pending = 0, want torn bytes", cut)
		}
		c.Close()
	}
}

func TestJournalCursorCorruptTailIsEOFNotError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.cxjournal")
	if err := AppendJournal(path, cursorRec(1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of a second record: checksum-failing tail.
	if err := AppendJournal(path, cursorRec(2, 1, 2)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c := OpenJournalCursor(path)
	defer c.Close()
	if rec, err := c.Next(); err != nil || rec.Version != 1 {
		t.Fatalf("first Next = %+v, %v", rec, err)
	}
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("checksum-failing tail Next = %v, want io.EOF", err)
	}
}

func TestJournalCursorBadHeaderIsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.cxjournal")
	if err := os.WriteFile(path, []byte("NOTJRNLxxxxxxxx"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := OpenJournalCursor(path)
	defer c.Close()
	if _, err := c.Next(); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("bad-magic Next = %v, want ErrJournalCorrupt", err)
	}
}

// TestJournalCursorReadFailureIsNotCorrupt: an I/O error (here the path is
// a directory) is a hard error that says nothing about the journal's bytes.
func TestJournalCursorReadFailureIsNotCorrupt(t *testing.T) {
	c := OpenJournalCursor(t.TempDir())
	defer c.Close()
	if _, err := c.Next(); err == nil || err == io.EOF || errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("unreadable Next = %v, want a non-corruption error", err)
	}
}

// TestJournalCursorConcurrentAppend drives a writer and a tailer at the
// same file: every record the writer fsyncs must eventually surface, in
// order, and the cursor must never report corruption.
func TestJournalCursorConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.cxjournal")
	const n = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= n; i++ {
			if err := AppendJournal(path, cursorRec(uint64(i), int32(i), int32(i+1))); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()

	c := OpenJournalCursor(path)
	defer c.Close()
	next := uint64(1)
	for next <= n {
		rec, err := c.Next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			t.Fatalf("Next after %d records: %v", next-1, err)
		}
		if rec.Version != next {
			t.Fatalf("out of order: got version %d, want %d", rec.Version, next)
		}
		next++
	}
	wg.Wait()
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("drained Next = %v, want io.EOF", err)
	}
}

func TestEncodeJournalFrameRoundTrip(t *testing.T) {
	rec := JournalRecord{Version: 42, Ops: []JournalOp{
		{Kind: JournalAddVertex, U: -1, V: -1, Name: "alice", Keywords: []string{"db", "ml"}},
		{Kind: JournalAddEdge, U: 3, V: 9},
	}}
	frame := EncodeJournalFrame(rec)
	decode := func(frame []byte) (JournalRecord, error) {
		return NewFrameReader(bytes.NewReader(frame)).Next()
	}
	got, err := decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 42 || len(got.Ops) != 2 || got.Ops[0].Name != "alice" || got.Ops[1].V != 9 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// A frame is byte-identical to what AppendJournal writes after the header.
	path := filepath.Join(t.TempDir(), "g.cxjournal")
	if err := AppendJournal(path, rec); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[8:], frame) {
		t.Fatal("EncodeJournalFrame differs from AppendJournal's frame bytes")
	}
	if _, err := decode(frame[:len(frame)-2]); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: %v, want io.ErrUnexpectedEOF", err)
	}
	frame[5] ^= 0x40
	if _, err := decode(frame); err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		t.Fatalf("corrupt frame: %v, want checksum error", err)
	}
}

func TestFrameReaderStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 1; i <= 3; i++ {
		buf.Write(EncodeJournalFrame(cursorRec(uint64(i), int32(i), int32(i+1))))
	}
	full := buf.Bytes()

	fr := NewFrameReader(bytes.NewReader(full))
	for want := uint64(1); want <= 3; want++ {
		rec, err := fr.Next()
		if err != nil || rec.Version != want {
			t.Fatalf("Next = %+v, %v; want version %d", rec, err, want)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("clean end Next = %v, want io.EOF", err)
	}

	// Truncation mid-frame is ErrUnexpectedEOF, not a clean end.
	fr = NewFrameReader(bytes.NewReader(full[:len(full)-5]))
	fr.Next()
	fr.Next()
	if _, err := fr.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated stream Next = %v, want io.ErrUnexpectedEOF", err)
	}

	// A corrupted frame on a stream is a hard error.
	bad := append([]byte(nil), full...)
	bad[len(bad)-6] ^= 0x01
	fr = NewFrameReader(bytes.NewReader(bad))
	fr.Next()
	fr.Next()
	if _, err := fr.Next(); err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		t.Fatalf("corrupt stream Next = %v, want checksum error", err)
	}
}
