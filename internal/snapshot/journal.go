package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// The mutation journal: the durability sidecar of the dynamic-graph
// subsystem. Snapshots are heavyweight full-state files; mutation batches
// are tiny. Rewriting a multi-megabyte snapshot per batch would make write
// throughput a function of dataset size, so instead each applied batch
// appends one framed, checksummed record to <dataset>.cxjournal, and a warm
// restart replays only the records the base snapshot predates (record
// version > snapshot version). The catalog periodically compacts: rewrite
// the snapshot at the current version, drop the journal.
//
// On-disk layout (little-endian):
//
//	magic   "CXJRNL"              6 bytes
//	version uint16                currently 1
//	records, repeated:
//	    payloadLen uint32
//	    payload    payloadLen bytes
//	    crc        uint32         CRC-32C of payload
//
// Each payload is one batch: version uint64, opCount uint32, then per op a
// kind byte and its operands. Appends are atomic-enough by construction: a
// crash mid-append leaves a truncated or checksum-failing final frame,
// which every reader treats as the end of the journal (boot replay
// truncates it away), never as corruption of the records before it — the
// same tail-tolerant discipline as every write-ahead log.

// JournalExt is the conventional extension for mutation journals.
const JournalExt = ".cxjournal"

const journalVersion = 1

const journalHeaderLen = 6 + 2 // magic + version uint16

var journalMagic = [6]byte{'C', 'X', 'J', 'R', 'N', 'L'}

// Journal op kinds (part of the format; never renumber).
const (
	JournalAddEdge    byte = 1
	JournalRemoveEdge byte = 2
	JournalAddVertex  byte = 3
)

// JournalOp is one graph edit in a journal record.
type JournalOp struct {
	Kind     byte
	U, V     int32  // edge ops
	Name     string // addVertex
	Keywords []string
}

// JournalRecord is one applied mutation batch: the dataset version the
// batch produced, and its ops in order.
type JournalRecord struct {
	Version uint64
	Ops     []JournalOp
}

// AppendJournal appends one record to the journal at path, creating the
// file (with its header) if needed, and syncs before returning so an
// acknowledged batch survives a crash. An append that creates the file also
// syncs its directory: compaction deletes the journal, so the first write
// after every compaction lands in a new directory entry.
func AppendJournal(path string, rec JournalRecord) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	created := st.Size() == 0
	var out []byte
	if created {
		out = append(out, journalMagic[:]...)
		out = binary.LittleEndian.AppendUint16(out, journalVersion)
	}
	out = appendJournalFrame(out, rec)
	if _, err := f.Write(out); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if created {
		syncDir(filepath.Dir(path))
	}
	return nil
}

// appendJournalFrame appends rec as one frame: payloadLen | payload | crc.
func appendJournalFrame(out []byte, rec JournalRecord) []byte {
	start := len(out)
	out = append(out, 0, 0, 0, 0) // payloadLen, patched below
	out = binary.LittleEndian.AppendUint64(out, rec.Version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(rec.Ops)))
	for _, op := range rec.Ops {
		out = append(out, op.Kind)
		out = binary.LittleEndian.AppendUint32(out, uint32(op.U))
		out = binary.LittleEndian.AppendUint32(out, uint32(op.V))
		out = appendJournalString(out, op.Name)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(op.Keywords)))
		for _, w := range op.Keywords {
			out = appendJournalString(out, w)
		}
	}
	payload := out[start+4:]
	binary.LittleEndian.PutUint32(out[start:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
}

func appendJournalString(p []byte, s string) []byte {
	p = binary.LittleEndian.AppendUint32(p, uint32(len(s)))
	return append(p, s...)
}

// checkJournalHeader validates the first journalHeaderLen bytes of a
// journal file.
func checkJournalHeader(hdr []byte) error {
	if string(hdr[:len(journalMagic)]) != string(journalMagic[:]) {
		return corruptError{fmt.Errorf("journal: bad magic %q (not a journal file)", hdr[:len(journalMagic)])}
	}
	if v := binary.LittleEndian.Uint16(hdr[len(journalMagic):]); v != journalVersion {
		return corruptError{fmt.Errorf("journal: unsupported version %d (this build reads version %d)", v, journalVersion)}
	}
	return nil
}

// ErrJournalCorrupt matches (via errors.Is) every error that reports a
// journal whose bytes are wrong — a bad header or a checksum-clean but
// malformed record — as opposed to an I/O failure reading bytes that may
// be fine.
var ErrJournalCorrupt = errors.New("journal: corrupt")

// corruptError keeps the wrapped error's message and matches
// ErrJournalCorrupt.
type corruptError struct{ err error }

func (e corruptError) Error() string        { return e.err.Error() }
func (e corruptError) Unwrap() error        { return e.err }
func (e corruptError) Is(target error) bool { return target == ErrJournalCorrupt }

// maxJournalFrame bounds a single frame's payload. A length prefix larger
// than this is treated as a torn tail (a crash can leave arbitrary bytes in
// the length slot), never as a frame to wait for.
const maxJournalFrame = 1 << 28 // 256 MiB

var (
	// errFrameShort: the bytes end before the frame does.
	errFrameShort = errors.New("journal: incomplete frame")
	// errFrameTorn: an oversized length prefix or a checksum mismatch.
	errFrameTorn = errors.New("journal: torn frame (oversized length or checksum mismatch)")
)

// decodeFrame is the one reader of the frame layout: it decodes the frame
// at the start of b. size is the whole frame's length once the length
// prefix is readable (0 before that), so a caller holding a short prefix
// knows how much to read. The error is errFrameShort when b ends before the
// frame does, errFrameTorn for an oversized length or a checksum mismatch,
// and anything else means the frame checksummed clean but its body is
// malformed — corruption (or a foreign writer), not a crash tail.
func decodeFrame(b []byte) (rec JournalRecord, size int, err error) {
	if len(b) < 4 {
		return rec, 0, errFrameShort
	}
	plen := binary.LittleEndian.Uint32(b)
	if plen > maxJournalFrame {
		return rec, 0, errFrameTorn
	}
	size = 4 + int(plen) + 4
	if len(b) < size {
		return rec, size, errFrameShort
	}
	payload := b[4 : 4+plen]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4+plen:]) {
		return rec, size, errFrameTorn
	}
	rec, err = decodeJournalPayload(payload)
	return rec, size, err
}

func decodeJournalPayload(payload []byte) (JournalRecord, error) {
	cur := &rbuf{b: payload}
	rec := JournalRecord{Version: cur.u64()}
	n := cur.u32()
	for i := uint32(0); i < n && cur.err == nil; i++ {
		var op JournalOp
		kb := cur.bytes(1)
		if cur.err != nil {
			break
		}
		op.Kind = kb[0]
		if op.Kind != JournalAddEdge && op.Kind != JournalRemoveEdge && op.Kind != JournalAddVertex {
			return rec, fmt.Errorf("unknown op kind %d", op.Kind)
		}
		op.U = int32(cur.u32())
		op.V = int32(cur.u32())
		op.Name = readJournalString(cur)
		kws := cur.u32()
		// Each keyword costs at least 4 encoded bytes; bound before any
		// allocation so a crafted count cannot request gigabytes.
		if cur.err == nil && int(kws) > cur.remaining()/4 {
			return rec, fmt.Errorf("keyword count %d exceeds remaining payload", kws)
		}
		for j := uint32(0); j < kws && cur.err == nil; j++ {
			op.Keywords = append(op.Keywords, readJournalString(cur))
		}
		rec.Ops = append(rec.Ops, op)
	}
	if cur.err != nil {
		return rec, cur.err
	}
	if cur.remaining() != 0 {
		return rec, fmt.Errorf("%d trailing bytes after ops", cur.remaining())
	}
	return rec, nil
}

func readJournalString(cur *rbuf) string {
	n := cur.u32()
	if cur.err != nil {
		return ""
	}
	if int64(n) > int64(cur.remaining()) {
		cur.fail("journal: string of %d bytes but %d remain", n, cur.remaining())
		return ""
	}
	return string(cur.bytes(int(n)))
}
