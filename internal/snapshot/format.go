package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// On-disk layout (all integers little-endian):
//
//	magic   "CXSNAP"                     6 bytes
//	version uint16                       1, 2, or 3
//	sections, repeated:
//	    id         uint32
//	    reserved   uint32                v3 only (zero; pads the header to 16)
//	    payloadLen uint64
//	    payload    payloadLen bytes
//	    padding    0–7 zero bytes        v3 only (next header 8-aligned)
//	trailer uint32                       CRC-32C (Castagnoli) of every
//	                                     preceding byte
//
// Versions 1 and 2 share the original unaligned layout (12-byte section
// headers, no padding) and always decode through the copy path. Version 3
// is the zero-copy layout: magic+version occupy exactly 8 bytes, section
// headers are 16 bytes, and every payload is padded to an 8-byte boundary —
// so every payload starts 8-aligned, which puts i64 array data on 8-byte
// and i32 array data on (at least) 4-byte addresses. A mapped v3 file can
// therefore serve its bulk arrays in place via unsafe.Slice (see view.go)
// instead of copying them onto the heap.
//
// Section payloads are themselves built from three primitives, each
// designed so that loading is a sequential bulk read — a length followed by
// a contiguous array, never a per-element structure:
//
//	i32 array:    count uint64 | count × int32
//	i64 array:    count uint64 | count × int64
//	string table: count uint64 | (count+1) × uint32 offsets | blob bytes
//
// Unknown section ids are skipped on read, so newer writers can add
// sections without breaking older readers; a bumped version number is
// reserved for incompatible changes and is rejected outright.

// Format versions, as reported in Snapshot.Format and Info.Version.
const (
	// FormatV2 is the unaligned legacy layout (versions 1 and 2 are
	// byte-identical). It is read-only: no writer emits it any more, and
	// testdata/golden_v2.cxsnap pins its bytes.
	FormatV2 uint16 = 2
	// FormatV3 is the aligned layout eligible for zero-copy mapped opens,
	// and the only one Write emits.
	FormatV3 uint16 = 3
)

const (
	maxVersion      = FormatV3
	trailerLen      = 4 // crc32
	sectionHdrLen   = 4 + 8
	sectionHdrLenV3 = 4 + 4 + 8
	sectionAlign    = 8
)

// aligned reports whether a format version uses the padded v3 layout.
func aligned(ver uint16) bool { return ver >= FormatV3 }

// sectionPad returns the number of zero bytes that follow a v3 payload.
func sectionPad(payloadLen uint64) int {
	return int((sectionAlign - payloadLen%sectionAlign) % sectionAlign)
}

var (
	magic      = [6]byte{'C', 'X', 'S', 'N', 'A', 'P'}
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// Section ids. Values are part of the format; never renumber.
const (
	secMeta    uint32 = 1  // name, counts, flags — first section, always present
	secOffsets uint32 = 2  // graph CSR offsets, []int64 (n+1)
	secAdj     uint32 = 3  // graph adjacency, []int32 (2m)
	secKwOff   uint32 = 4  // keyword offsets, []int32 (n+1)
	secKwData  uint32 = 5  // keyword arena, []int32
	secVocab   uint32 = 6  // vocabulary string table
	secNames   uint32 = 7  // display-name string table (named graphs only)
	secCore    uint32 = 8  // core numbers, []int32 (n)
	secTree    uint32 = 9  // CL-tree arenas (cltree.Flat)
	secTruss   uint32 = 10 // truss decomposition: edge table + trussness
	secVersion uint32 = 11 // dataset mutation-version counter, uint64
)

func sectionName(id uint32) string {
	switch id {
	case secMeta:
		return "meta"
	case secOffsets:
		return "graph-offsets"
	case secAdj:
		return "graph-adjacency"
	case secKwOff:
		return "keyword-offsets"
	case secKwData:
		return "keyword-arena"
	case secVocab:
		return "vocabulary"
	case secNames:
		return "names"
	case secCore:
		return "core-numbers"
	case secTree:
		return "cltree"
	case secTruss:
		return "ktruss"
	case secVersion:
		return "dataset-version"
	default:
		return fmt.Sprintf("unknown(%d)", id)
	}
}

// --- write side ---

// countingCRCWriter threads every written byte through the running checksum
// so the trailer can be emitted without buffering the whole file.
type countingCRCWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (c *countingCRCWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	c.n += int64(n)
	return n, err
}

// wbuf wraps an output sink with sticky-error primitive encoders and a
// reusable chunk buffer, so large arrays stream through a fixed-size
// scratch instead of being materialized as bytes. The sink is either the
// checksummed writer (envelope and trailer) or a plain in-memory buffer
// (section payloads encoded in parallel; their bytes pass through the
// checksum when the buffers are stitched together in order).
type wbuf struct {
	w       io.Writer
	cw      *countingCRCWriter // set when w is the checksummed sink
	err     error
	scratch []byte

	// pad is the payload padding the last sectionHeader owes; endSection
	// emits it, so section encoders need not know the layout.
	pad int
}

func newWbuf(w io.Writer) *wbuf {
	cw := &countingCRCWriter{w: w}
	return &wbuf{w: cw, cw: cw, scratch: make([]byte, 1<<16)}
}

// newMemWbuf encodes into an in-memory buffer with no checksum threading —
// the parallel-encode path.
func newMemWbuf(buf *bytes.Buffer) *wbuf {
	return &wbuf{w: buf, scratch: make([]byte, 1<<16)}
}

func (b *wbuf) write(p []byte) {
	if b.err != nil {
		return
	}
	_, b.err = b.w.Write(p)
}

func (b *wbuf) u16(v uint16) {
	var tmp [2]byte
	binary.LittleEndian.PutUint16(tmp[:], v)
	b.write(tmp[:])
}

func (b *wbuf) u32(v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	b.write(tmp[:])
}

func (b *wbuf) u64(v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	b.write(tmp[:])
}

// sectionHeader writes a 16-byte v3 section header.
func (b *wbuf) sectionHeader(id uint32, payloadLen uint64) {
	b.u32(id)
	b.u32(0) // reserved; pads the header to 16 bytes
	b.u64(payloadLen)
	b.pad = sectionPad(payloadLen)
}

// endSection emits the payload padding the last sectionHeader implies.
// Write calls it after every section encoder.
func (b *wbuf) endSection() {
	if b.pad > 0 {
		var zeros [sectionAlign]byte
		b.write(zeros[:b.pad])
		b.pad = 0
	}
}

// i32s writes an i32-array primitive (count + bulk payload).
func (b *wbuf) i32s(s []int32) {
	b.u64(uint64(len(s)))
	for len(s) > 0 && b.err == nil {
		chunk := s
		if len(chunk) > len(b.scratch)/4 {
			chunk = chunk[:len(b.scratch)/4]
		}
		for i, v := range chunk {
			binary.LittleEndian.PutUint32(b.scratch[4*i:], uint32(v))
		}
		b.write(b.scratch[:4*len(chunk)])
		s = s[len(chunk):]
	}
}

// i64s writes an i64-array primitive.
func (b *wbuf) i64s(s []int64) {
	b.u64(uint64(len(s)))
	for len(s) > 0 && b.err == nil {
		chunk := s
		if len(chunk) > len(b.scratch)/8 {
			chunk = chunk[:len(b.scratch)/8]
		}
		for i, v := range chunk {
			binary.LittleEndian.PutUint64(b.scratch[8*i:], uint64(v))
		}
		b.write(b.scratch[:8*len(chunk)])
		s = s[len(chunk):]
	}
}

// strings writes a string-table primitive.
func (b *wbuf) strings(s []string) {
	b.u64(uint64(len(s)))
	off := uint32(0)
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], off)
	b.write(tmp[:])
	for _, w := range s {
		off += uint32(len(w))
		binary.LittleEndian.PutUint32(tmp[:], off)
		b.write(tmp[:])
	}
	for _, w := range s {
		b.write([]byte(w))
	}
}

// Payload-size formulas, used to emit section headers without buffering.

func i32sLen(n int) uint64 { return 8 + 4*uint64(n) }

func i64sLen(n int) uint64 { return 8 + 8*uint64(n) }

func stringsLen(s []string) (uint64, error) {
	blob := uint64(0)
	for _, w := range s {
		blob += uint64(len(w))
	}
	if blob > 1<<32-1 {
		return 0, fmt.Errorf("snapshot: string blob of %d bytes exceeds format limit", blob)
	}
	return 8 + 4*uint64(len(s)+1) + blob, nil
}

// --- read side ---

// rbuf is a sticky-error cursor over the fully read (and checksum-verified)
// file contents. Array decodes bound-check the declared count against the
// remaining bytes before allocating, so even a crafted file that passes the
// CRC cannot trigger an outsized allocation.
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *rbuf) remaining() int { return len(r.b) - r.off }

func (r *rbuf) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.remaining() {
		r.fail("snapshot: truncated payload (want %d bytes, have %d)", n, r.remaining())
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *rbuf) u16() uint16 {
	p := r.bytes(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

func (r *rbuf) u32() uint32 {
	p := r.bytes(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *rbuf) u64() uint64 {
	p := r.bytes(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// count reads a u64 element count and checks it against the bytes left at
// elemSize bytes per element.
func (r *rbuf) count(elemSize int) int {
	n := r.u64()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.remaining()/elemSize) {
		r.fail("snapshot: declared %d elements but only %d bytes remain", n, r.remaining())
		return 0
	}
	return int(n)
}

// i32s decodes an i32-array primitive with a sequential bulk read.
func (r *rbuf) i32s() []int32 {
	n := r.count(4)
	p := r.bytes(4 * n)
	if r.err != nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return out
}

// i64s decodes an i64-array primitive.
func (r *rbuf) i64s() []int64 {
	n := r.count(8)
	p := r.bytes(8 * n)
	if r.err != nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out
}

// strings decodes a string-table primitive.
func (r *rbuf) strings() []string {
	n := r.count(4) // at least one offset per entry
	offs := r.bytes(4 * (n + 1))
	if r.err != nil {
		return nil
	}
	blobLen := int(binary.LittleEndian.Uint32(offs[4*n:]))
	blob := r.bytes(blobLen)
	if r.err != nil {
		return nil
	}
	out := make([]string, n)
	prev := uint32(0)
	for i := 0; i < n; i++ {
		end := binary.LittleEndian.Uint32(offs[4*(i+1):])
		if end < prev || int(end) > blobLen {
			r.fail("snapshot: corrupt string table offsets")
			return nil
		}
		out[i] = string(blob[prev:end])
		prev = end
	}
	return out
}
