package snapshot

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// The two readers of the journal format, both built on decodeFrame.
// JournalCursor reads a journal file frame-at-a-time from a byte offset and
// treats "no complete frame yet" as a clean, retryable EOF, so boot replay
// can drain it and a tailer can poll a file that another goroutine is still
// appending to. FrameReader applies the same frame discipline to an
// io.Reader (the HTTP shipping stream), where there is no header and a
// short read is a hard truncation error, not a tail to wait out.

// EncodeJournalFrame renders one record as a shippable frame:
// payloadLen | payload | crc — exactly the bytes AppendJournal writes after
// the file header. A stream of these frames is what the journal-shipping
// endpoint serves and what FrameReader decodes.
func EncodeJournalFrame(rec JournalRecord) []byte {
	return appendJournalFrame(nil, rec)
}

// JournalCursor reads a journal file incrementally. Next returns records in
// file order; when it runs out of complete, checksum-clean frames it
// returns io.EOF without advancing, and a later Next observes any bytes
// appended since — the contract a journal tailer needs. A missing file is
// the empty journal (a dataset that has never been mutated), also io.EOF.
type JournalCursor struct {
	path string
	f    *os.File
	off  int64 // offset of the next unread frame
	hdr  bool  // file header validated
}

// OpenJournalCursor positions a cursor at the start of the journal at path.
// The file need not exist yet; the cursor will pick it up once the first
// append creates it.
func OpenJournalCursor(path string) *JournalCursor {
	return &JournalCursor{path: path}
}

// Close releases the underlying file. The cursor remains usable; a later
// Next reopens.
func (c *JournalCursor) Close() error {
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}

// Offset reports the file offset of the next unread frame (after the header
// once any record has been read or the header validated).
func (c *JournalCursor) Offset() int64 { return c.off }

// Pending reports how many bytes sit at or beyond the cursor without
// forming a complete intact frame — zero when fully caught up. After Next
// returns io.EOF, a nonzero Pending on a quiescent file is a torn tail.
func (c *JournalCursor) Pending() int64 {
	if c.f == nil {
		return 0
	}
	st, err := c.f.Stat()
	if err != nil {
		return 0
	}
	return st.Size() - c.off
}

// Next returns the next intact record. io.EOF means "nothing more right
// now": the file is missing, ends exactly at the cursor, or ends in a
// partial or checksum-failing frame (an append in flight, or a crash tail).
// Any other error leaves the cursor put: real corruption — a bad header or
// a checksummed frame with a malformed body — matches ErrJournalCorrupt; an
// I/O failure does not.
func (c *JournalCursor) Next() (JournalRecord, error) {
	rec, _, err := c.next()
	return rec, err
}

// NextFrame is Next, also returning the raw frame bytes (payloadLen |
// payload | crc) so a shipper can forward records without re-encoding.
func (c *JournalCursor) NextFrame() (JournalRecord, []byte, error) {
	return c.next()
}

func (c *JournalCursor) next() (JournalRecord, []byte, error) {
	if c.f == nil {
		f, err := os.Open(c.path)
		if err != nil {
			if os.IsNotExist(err) {
				return JournalRecord{}, nil, io.EOF
			}
			return JournalRecord{}, nil, fmt.Errorf("journal: %w", err)
		}
		c.f = f
	}
	if !c.hdr {
		hdr := make([]byte, journalHeaderLen)
		if _, err := c.f.ReadAt(hdr, 0); err != nil {
			// Too short to hold a header yet: an append may be in flight.
			if err == io.EOF {
				return JournalRecord{}, nil, io.EOF
			}
			return JournalRecord{}, nil, fmt.Errorf("journal: %w", err)
		}
		if err := checkJournalHeader(hdr); err != nil {
			return JournalRecord{}, nil, err
		}
		c.hdr = true
		c.off = journalHeaderLen
	}
	// The length prefix gives the frame's size; then read the whole frame.
	var prefix [4]byte
	n, err := c.f.ReadAt(prefix[:], c.off)
	if err != nil && err != io.EOF {
		return JournalRecord{}, nil, fmt.Errorf("journal: %w", err)
	}
	_, size, err := decodeFrame(prefix[:n])
	if size == 0 || err == errFrameTorn {
		// An append in flight or a crash tail: retryable, do not advance.
		return JournalRecord{}, nil, io.EOF
	}
	frame := make([]byte, size)
	n, err = c.f.ReadAt(frame, c.off)
	if err != nil && err != io.EOF {
		return JournalRecord{}, nil, fmt.Errorf("journal: %w", err)
	}
	rec, _, err := decodeFrame(frame[:n])
	switch err {
	case nil:
		c.off += int64(size)
		return rec, frame, nil
	case errFrameShort, errFrameTorn:
		return JournalRecord{}, nil, io.EOF
	default:
		return JournalRecord{}, nil, corruptError{fmt.Errorf("journal: record at offset %d: %w", c.off, err)}
	}
}

// FrameReader decodes a stream of journal frames (no file header) from an
// io.Reader — the receive side of the journal-shipping endpoint. Unlike the
// file cursor, a short read mid-frame is io.ErrUnexpectedEOF: on a stream
// there is no "wait for the writer", a truncated frame means the connection
// died and the caller should reconnect from its last applied sequence.
type FrameReader struct {
	r *bufio.Reader
}

// NewFrameReader wraps r for frame-at-a-time decoding.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReader(r)}
}

// Next returns the next record. io.EOF marks a clean end between frames;
// io.ErrUnexpectedEOF a mid-frame truncation; other errors corruption.
func (fr *FrameReader) Next() (JournalRecord, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(fr.r, prefix[:]); err != nil {
		return JournalRecord{}, err // io.EOF: clean frame boundary
	}
	_, size, err := decodeFrame(prefix[:])
	if err == errFrameTorn {
		return JournalRecord{}, fmt.Errorf("journal: stream frame: %w", err)
	}
	frame := make([]byte, size)
	copy(frame, prefix[:])
	if _, err := io.ReadFull(fr.r, frame[len(prefix):]); err != nil {
		return JournalRecord{}, io.ErrUnexpectedEOF
	}
	rec, _, err := decodeFrame(frame)
	if err != nil {
		return JournalRecord{}, fmt.Errorf("journal: stream frame: %w", err)
	}
	return rec, nil
}
