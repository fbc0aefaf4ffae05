package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cexplorer/internal/gen"
)

// fuzzSeedSnapshot builds a small but fully featured snapshot (named,
// attributed graph with all three indexes absent — plus one with indexes)
// for the decoder corpus.
func fuzzSeedSnapshot(t interface{ Fatal(...any) }) []byte {
	d := gen.GenerateDBLP(gen.SmallDBLPConfig())
	var buf bytes.Buffer
	if _, err := Write(&buf, &Snapshot{Name: "seed", Graph: d.Graph, Version: 3}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSnapshotDecode drives arbitrary bytes through the full snapshot
// decoder. The contract under test: Decode returns an error for anything
// damaged and NEVER panics — header corruption, section framing lies, CRC
// tampering, truncation, all of it.
func FuzzSnapshotDecode(f *testing.F) {
	seed := fuzzSeedSnapshot(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])           // truncation
	f.Add([]byte("CXSNAP"))             // bare magic
	f.Add([]byte("not a snapshot"))     // foreign bytes
	f.Add(bytes.Repeat([]byte{0}, 64))  // zeros
	f.Add(append([]byte(nil), seed...)) // mutatable copy
	corrupt := append([]byte(nil), seed...)
	corrupt[len(corrupt)/2] ^= 0x40 // body flip: CRC must catch it
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		// A successful decode must yield a coherent dataset: the graph's
		// full structural validator is the strongest cheap oracle here.
		if s.Graph == nil {
			t.Fatal("decode returned nil graph without error")
		}
		if err := s.Graph.Validate(); err != nil {
			// The decoder intentionally skips the O(m log m) deep adjacency
			// re-validation on trusted (checksummed) input, so a crafted
			// file that satisfies the checksum can carry a structurally
			// invalid graph; what matters for the fuzz contract is that
			// nothing panicked on the way here.
			t.Skip("decoded graph fails deep validation (crafted input)")
		}
	})
}

// FuzzJournalDecode drives arbitrary bytes through both journal readers —
// a JournalCursor over the bytes as a file, and a FrameReader over the
// bytes after the header as a stream — which share the one frame decoder.
// Neither may panic or make an absurd allocation (the decoder bounds every
// count against remaining payload); the cursor's Offset and Pending must
// partition the file; and under a valid header the stream reader must
// yield exactly the cursor's records before its first error.
func FuzzJournalDecode(f *testing.F) {
	var buf bytes.Buffer
	buf.Write(journalMagic[:])
	buf.WriteByte(1)
	buf.WriteByte(0)
	f.Add(buf.Bytes()) // bare header
	f.Add([]byte("CXJRNL"))
	f.Add([]byte{})
	// A real journal with two records.
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.cxjournal")
	if err := AppendJournal(path, JournalRecord{Version: 1, Ops: []JournalOp{
		{Kind: JournalAddEdge, U: 1, V: 2},
		{Kind: JournalAddVertex, Name: "n", Keywords: []string{"a", "b"}},
	}}); err != nil {
		f.Fatal(err)
	}
	if err := AppendJournal(path, JournalRecord{Version: 2, Ops: []JournalOp{
		{Kind: JournalRemoveEdge, U: 1, V: 2},
	}}); err != nil {
		f.Fatal(err)
	}
	if recs, _, _, err := drainJournal(f, path); err != nil || len(recs) != 2 {
		f.Fatalf("seed journal: %v (%d records)", err, len(recs))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)-3]) // torn tail
	// A checksum-clean frame with a malformed body after an intact one.
	f.Add(append(bytes.Clone(data), EncodeJournalFrame(JournalRecord{Version: 3, Ops: []JournalOp{{Kind: 99}}})...))

	f.Fuzz(func(t *testing.T, b []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.cxjournal")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, off, pending, cerr := drainJournal(t, path)
		if off+pending != int64(len(b)) {
			t.Fatalf("Offset %d + Pending %d != file size %d", off, pending, len(b))
		}
		for _, r := range recs {
			for _, op := range r.Ops {
				switch op.Kind {
				case JournalAddEdge, JournalRemoveEdge, JournalAddVertex:
				default:
					t.Fatalf("decoder passed through unknown op kind %d", op.Kind)
				}
			}
		}
		if len(b) < journalHeaderLen {
			return
		}
		headerErr := checkJournalHeader(b[:journalHeaderLen])
		if headerErr != nil {
			if cerr == nil || len(recs) != 0 {
				t.Fatalf("bad header (%v): cursor returned %d records, err %v", headerErr, len(recs), cerr)
			}
			return
		}
		var streamed []JournalRecord
		fr := NewFrameReader(bytes.NewReader(b[journalHeaderLen:]))
		for {
			rec, err := fr.Next()
			if err != nil {
				break
			}
			streamed = append(streamed, rec)
		}
		if !reflect.DeepEqual(streamed, recs) {
			t.Fatalf("stream reader yielded %d records, cursor %d", len(streamed), len(recs))
		}
	})
}
