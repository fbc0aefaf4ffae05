// Package snapshot persists a dataset — an attributed graph together with
// its precomputed indexes — as one versioned, checksummed binary file, so a
// server restart costs a sequential read instead of re-parsing text and
// re-running core/truss/CL-tree construction ("the index cost is paid once,
// offline", as the ACQ line of work prescribes for the indexing module of
// Figure 3).
//
// A snapshot always carries the graph (CSR offsets and adjacency, keyword
// arenas, vocabulary, display names) and optionally carries any subset of
// the three indexes: core numbers, the CL-tree in its arena form
// (cltree.Flat, inverted lists included), and the truss decomposition. All
// payloads are length-prefixed contiguous arrays, so loading is bulk slice
// reads plus pointer stitching — no per-element structure decode, no
// re-sorting, no hash-map rebuilds beyond the vocabulary, name, and
// edge-id maps that Go cannot memory-map.
//
// Files end in a CRC-32C trailer covering every preceding byte; truncation,
// bit rot, a foreign file, or an unsupported version all surface as clean
// errors from Read, never panics.
//
// # Zero-copy (format v3)
//
// Format v3 makes the on-disk layout the in-memory layout: section headers
// are 16 bytes, every payload is padded so it starts (and the next header
// stays) 8-byte aligned, and all numbers are little-endian. On a
// little-endian Unix host, OpenFile can therefore mmap the file and
// DecodeView stitches the runtime structures directly over the mapping —
// bulk arrays (CSR graph, keyword arenas, tree arenas) and even string
// contents (names, vocabulary) are views of the mapped pages, so opening
// costs O(index stitch) allocations instead of O(bytes) copies. The truss
// section is the exception: it is read off the mapping into the
// decomposition's heap per-slot array (ktruss.FromParts, one O(m) sweep).
// View-decoded graphs are marked borrowed (graph.Raw.Borrowed); the
// refcounted Mapping returned by OpenFile must outlive every reader and is
// released by the owner's Close (callers pin it across reads).
//
// Eligibility is a property, not an error: DecodeView fails with the
// sticky ErrNotZeroCopy on v1/v2 files, big-endian hosts, or misaligned
// sections, and OpenAuto falls back to copy-decoding the same bytes.
// Corruption, by contrast, fails the open in every mode. The copy path
// (Read/Decode, and io.Reader sources generally) remains fully supported;
// legacy v1 and v2 files keep working through it forever. Write emits only
// v3.
package snapshot

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"cexplorer/internal/cltree"
	"cexplorer/internal/graph"
	"cexplorer/internal/ktruss"
	"cexplorer/internal/par"
)

// FileExt is the conventional extension for snapshot files; the server's
// catalog scans its data directory for it.
const FileExt = ".cxsnap"

// Snapshot bundles everything one dataset persists. Graph is mandatory;
// Core, Tree, and Truss may be nil (the loader falls back to building them
// lazily, exactly as an unindexed upload would).
type Snapshot struct {
	Name  string
	Graph *graph.Graph
	Core  []int32
	Tree  *cltree.Tree
	Truss *ktruss.Decomposition

	// Version is the dataset's mutation-version counter (how many mutation
	// batches its lineage has absorbed). A warm restart compares it against
	// the mutation journal to replay only the tail the snapshot predates.
	// Files written before the dynamic-graph subsystem carry no version
	// section and load as version 0.
	Version uint64

	// Created is stamped by Write and restored by Read.
	Created time.Time
	// Bytes is the encoded file size, set by Read/ReadFile.
	Bytes int64

	// Format is the on-disk version the snapshot was decoded from (set by
	// Decode/DecodeView; zero for snapshots assembled in memory).
	Format uint16
	// ZeroCopy reports that the snapshot was view-decoded: its bulk arrays
	// and string contents borrow the decode input and are valid only while
	// that backing memory is.
	ZeroCopy bool
}

const (
	flagNamed = 1 << iota
	flagCore
	flagTree
	flagTruss
)

// Write serializes the snapshot in the v3 (zero-copy-eligible) format and
// returns the number of bytes written.
//
// Section payloads are independent, so each section (header + payload) is
// encoded into its own buffer across par.Workers() workers and the buffers
// are then stitched through the checksum in file order — the bytes, and the
// trailing CRC, are identical to a serial write. The encode now buffers the
// whole file in memory (roughly the encoded size) instead of streaming
// through a fixed scratch; snapshots are bulk arrays, so that is the same
// order of memory the dataset itself occupies.
func Write(w io.Writer, s *Snapshot) (int64, error) {
	if s.Graph == nil {
		return 0, fmt.Errorf("snapshot: nil graph")
	}
	raw := s.Graph.Raw()

	flags := uint64(0)
	if len(raw.Names) > 0 {
		flags |= flagNamed
	}
	if s.Core != nil {
		flags |= flagCore
	}
	if s.Tree != nil {
		flags |= flagTree
	}
	if s.Truss != nil {
		flags |= flagTruss
	}
	created := s.Created
	if created.IsZero() {
		created = time.Now()
	}

	// One encoder per section, in file order.
	var secs []func(b *wbuf)
	secs = append(secs, func(b *wbuf) { // meta
		metaLen := uint64(4+len(s.Name)) + 8 + 8 + 8 + 8 + 8
		b.sectionHeader(secMeta, metaLen)
		b.u32(uint32(len(s.Name)))
		b.write([]byte(s.Name))
		b.u64(uint64(s.Graph.N()))
		b.u64(uint64(s.Graph.M()))
		b.u64(uint64(s.Graph.Vocab().Len()))
		b.u64(uint64(created.Unix()))
		b.u64(flags)
	})
	// version counter (omitted at zero, keeping pristine-dataset files
	// byte-identical with pre-dynamic writers)
	if s.Version > 0 {
		secs = append(secs, func(b *wbuf) {
			b.sectionHeader(secVersion, 8)
			b.u64(s.Version)
		})
	}
	// graph
	secs = append(secs,
		func(b *wbuf) {
			b.sectionHeader(secOffsets, i64sLen(len(raw.Offsets)))
			b.i64s(raw.Offsets)
		},
		func(b *wbuf) {
			b.sectionHeader(secAdj, i32sLen(len(raw.Adj)))
			b.i32s(raw.Adj)
		},
		func(b *wbuf) {
			b.sectionHeader(secKwOff, i32sLen(len(raw.KwOffsets)))
			b.i32s(raw.KwOffsets)
		},
		func(b *wbuf) {
			b.sectionHeader(secKwData, i32sLen(len(raw.KwData)))
			b.i32s(raw.KwData)
		},
		func(b *wbuf) {
			vocabLen, err := stringsLen(raw.Words)
			if err != nil {
				b.err = err
				return
			}
			b.sectionHeader(secVocab, vocabLen)
			b.strings(raw.Words)
		},
	)
	if len(raw.Names) > 0 {
		secs = append(secs, func(b *wbuf) {
			namesLen, err := stringsLen(raw.Names)
			if err != nil {
				b.err = err
				return
			}
			b.sectionHeader(secNames, namesLen)
			b.strings(raw.Names)
		})
	}
	// indexes
	if s.Core != nil {
		secs = append(secs, func(b *wbuf) {
			b.sectionHeader(secCore, i32sLen(len(s.Core)))
			b.i32s(s.Core)
		})
	}
	if s.Tree != nil {
		secs = append(secs, func(b *wbuf) {
			f := s.Tree.Flatten()
			payload := i32sLen(len(f.Cores)) + i32sLen(len(f.Parents)) +
				i32sLen(len(f.VertOff)) + i32sLen(len(f.Verts)) +
				i32sLen(len(f.InvOff)) + i32sLen(len(f.InvKw)) + i32sLen(len(f.InvV))
			b.sectionHeader(secTree, payload)
			b.i32s(f.Cores)
			b.i32s(f.Parents)
			b.i32s(f.VertOff)
			b.i32s(f.Verts)
			b.i32s(f.InvOff)
			b.i32s(f.InvKw)
			b.i32s(f.InvV)
		})
	}
	if s.Truss != nil {
		secs = append(secs, func(b *wbuf) {
			edges, truss := s.Truss.Parts()
			flat := make([]int32, 0, 2*len(edges))
			for _, e := range edges {
				flat = append(flat, e[0], e[1])
			}
			b.sectionHeader(secTruss, i32sLen(len(flat))+i32sLen(len(truss)))
			b.i32s(flat)
			b.i32s(truss)
		})
	}

	b := newWbuf(w)
	b.write(magic[:])
	b.u16(FormatV3)
	if par.Workers() == 1 {
		// Serial fast path: stream every section straight through the
		// checksummed writer — no buffer materialization, the original
		// single-pass encode.
		for _, enc := range secs {
			enc(b)
			b.endSection()
		}
	} else {
		bufs := make([]bytes.Buffer, len(secs))
		errs := make([]error, len(secs))
		par.Each(len(secs), 0, func(i int) {
			mb := newMemWbuf(&bufs[i])
			secs[i](mb)
			mb.endSection()
			errs[i] = mb.err
		})
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		// Stitch the section buffers through the checksum in file order.
		for i := range bufs {
			b.write(bufs[i].Bytes())
		}
	}
	b.u32(b.cw.crc)
	return b.cw.n, b.err
}

// openEnvelope verifies the file envelope shared by Read and Inspect —
// length, magic, CRC-32C trailer, version — and returns a cursor positioned
// at the first section header plus the file's format version.
func openEnvelope(data []byte) (*rbuf, uint16, error) {
	if len(data) < len(magic)+2+trailerLen {
		return nil, 0, fmt.Errorf("snapshot: file too short (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != string(magic[:]) {
		return nil, 0, fmt.Errorf("snapshot: bad magic %q (not a snapshot file)", data[:len(magic)])
	}
	body := data[:len(data)-trailerLen]
	want := uint32(data[len(data)-4]) | uint32(data[len(data)-3])<<8 |
		uint32(data[len(data)-2])<<16 | uint32(data[len(data)-1])<<24
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, 0, fmt.Errorf("snapshot: checksum mismatch (file %08x, computed %08x): truncated or corrupt", want, got)
	}
	cur := &rbuf{b: body, off: len(magic)}
	ver := cur.u16()
	if cur.err == nil && (ver < 1 || ver > maxVersion) {
		return nil, 0, fmt.Errorf("snapshot: unsupported version %d (this build reads versions 1–%d)", ver, maxVersion)
	}
	return cur, ver, cur.err
}

// nextSection reads one section header under the file's format version and
// returns its id, a cursor over its payload, and the payload's absolute
// file offset; done is true at end of input. In the v3 layout it also
// consumes the reserved header word and the trailing payload padding.
func nextSection(cur *rbuf, ver uint16) (id uint32, sec *rbuf, off int64, done bool, err error) {
	if cur.remaining() == 0 {
		return 0, nil, 0, true, nil
	}
	id = cur.u32()
	if aligned(ver) {
		if reserved := cur.u32(); cur.err == nil && reserved != 0 {
			return 0, nil, 0, false, fmt.Errorf("snapshot: section %s: nonzero reserved header word", sectionName(id))
		}
	}
	payloadLen := cur.u64()
	if cur.err != nil {
		return 0, nil, 0, false, cur.err
	}
	if payloadLen > uint64(cur.remaining()) {
		return 0, nil, 0, false, fmt.Errorf("snapshot: section %s declares %d bytes but %d remain",
			sectionName(id), payloadLen, cur.remaining())
	}
	off = int64(cur.off)
	sec = &rbuf{b: cur.bytes(int(payloadLen))}
	if aligned(ver) {
		cur.bytes(sectionPad(payloadLen)) // every v3 section is padded, the last included
	}
	return id, sec, off, false, cur.err
}

// Read deserializes a snapshot. The stream is read fully, checksum-verified
// end to end, and then decoded section by section; any structural damage
// yields an error, never a panic. Unknown sections are skipped.
func Read(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return Decode(data)
}

// Decode deserializes a snapshot from bytes already in memory (what Read
// and ReadFile call after slurping their source; callers that already hold
// the file contents can use it directly and skip a copy).
//
// The section framing is walked serially (a few header reads), then the
// payloads — independent bulk arrays — decode across par.Workers() workers,
// with a duplicated section id resolved to its last occurrence exactly as
// the serial decoder's switch did.
func Decode(data []byte) (*Snapshot, error) {
	return decode(data, false)
}

// DecodeView deserializes a v3 snapshot with its bulk arrays and string
// contents borrowed from data (see view.go for the exact contract): the
// result is valid only while data is. It fails with ErrNotZeroCopy — the
// caller's cue to fall back to Decode — when the file predates v3, the
// host is big-endian, or a payload is misaligned; any other error means
// the file is damaged for both paths.
func DecodeView(data []byte) (*Snapshot, error) {
	return decode(data, true)
}

func decode(data []byte, view bool) (*Snapshot, error) {
	cur, ver, err := openEnvelope(data)
	if err != nil {
		return nil, err
	}
	if view {
		if !aligned(ver) {
			return nil, fmt.Errorf("%w: file is v%d (zero-copy needs v%d)", ErrNotZeroCopy, ver, FormatV3)
		}
		if !hostLittleEndian {
			return nil, fmt.Errorf("%w: big-endian host", ErrNotZeroCopy)
		}
	}

	type section struct {
		id      uint32
		payload []byte
	}
	var found []section
	for {
		id, sec, _, done, err := nextSection(cur, ver)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
		if len(found) == 0 && id != secMeta {
			return nil, fmt.Errorf("snapshot: first section is %s, want meta", sectionName(id))
		}
		found = append(found, section{id, sec.b})
	}
	if len(found) == 0 {
		return nil, fmt.Errorf("snapshot: missing meta section")
	}
	// Last occurrence of an id wins; unknown ids are skipped (forward
	// compatibility).
	latest := make(map[uint32]int, len(found))
	for i, sec := range found {
		latest[sec.id] = i
	}
	var todo []section
	for i, sec := range found {
		if latest[sec.id] == i {
			todo = append(todo, sec)
		}
	}

	s := &Snapshot{Bytes: int64(len(data)), Format: ver, ZeroCopy: view}
	// Bulk-array primitives dispatch on the decode mode: the copy path heap-
	// allocates, the view path pointer-stitches over data (see view.go).
	i32s := (*rbuf).i32s
	i64s := (*rbuf).i64s
	strs := (*rbuf).strings
	if view {
		i32s = (*rbuf).viewI32s
		i64s = (*rbuf).viewI64s
		strs = (*rbuf).viewStrings
	}
	var (
		raw      graph.Raw
		flags    uint64
		treeFlat *cltree.Flat
		trussRaw [2][]int32 // flat edges, trussness
		sawTruss bool
	)
	errs := make([]error, len(todo))
	par.Each(len(todo), 0, func(i int) {
		sec := &rbuf{b: todo[i].payload}
		switch id := todo[i].id; id {
		case secMeta:
			nameLen := int(sec.u32())
			s.Name = string(sec.bytes(nameLen))
			sec.u64() // n — informational; authoritative counts come from the arrays
			sec.u64() // m
			sec.u64() // vocab
			s.Created = time.Unix(int64(sec.u64()), 0)
			flags = sec.u64()
		case secOffsets:
			raw.Offsets = i64s(sec)
		case secAdj:
			raw.Adj = i32s(sec)
		case secKwOff:
			raw.KwOffsets = i32s(sec)
		case secKwData:
			raw.KwData = i32s(sec)
		case secVocab:
			raw.Words = strs(sec)
		case secNames:
			raw.Names = strs(sec)
		case secCore:
			s.Core = i32s(sec)
		case secTree:
			treeFlat = &cltree.Flat{
				Cores:   i32s(sec),
				Parents: i32s(sec),
				VertOff: i32s(sec),
				Verts:   i32s(sec),
				InvOff:  i32s(sec),
				InvKw:   i32s(sec),
				InvV:    i32s(sec),
			}
		case secTruss:
			trussRaw[0] = i32s(sec)
			trussRaw[1] = i32s(sec)
			sawTruss = true
		case secVersion:
			s.Version = sec.u64()
		}
		if sec.err != nil {
			errs[i] = fmt.Errorf("snapshot: section %s: %w", sectionName(todo[i].id), sec.err)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	raw.Borrowed = view
	g, err := graph.FromRaw(raw)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	s.Graph = g
	if flags&flagCore != 0 && len(s.Core) != g.N() {
		return nil, fmt.Errorf("snapshot: %d core numbers for n=%d", len(s.Core), g.N())
	}
	if flags&flagTree != 0 {
		if treeFlat == nil {
			return nil, fmt.Errorf("snapshot: meta declares a CL-tree but no cltree section present")
		}
		t, err := cltree.FromFlat(g, *treeFlat)
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		s.Tree = t
	}
	if flags&flagTruss != 0 {
		if !sawTruss {
			return nil, fmt.Errorf("snapshot: meta declares a truss decomposition but no ktruss section present")
		}
		flat := trussRaw[0]
		if len(flat) != 2*len(trussRaw[1]) {
			return nil, fmt.Errorf("snapshot: truss edge table length %d does not match %d trussness values",
				len(flat), len(trussRaw[1]))
		}
		// The flat table is already (u,v) pairs in memory, and FromParts
		// only reads it into the decomposition's own per-slot array, so it
		// is reinterpreted in place — mapped or heap-decoded alike.
		edges, err := viewPairs(flat)
		if err != nil {
			return nil, err
		}
		d, err := ktruss.FromParts(g, edges, trussRaw[1])
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		s.Truss = d
	}
	return s, nil
}

// WriteFile atomically persists the snapshot at path: it writes to a
// temporary file in the same directory, fsyncs, renames into place, and
// fsyncs the directory, so a crash at any point can neither leave a
// half-written catalog entry nor lose the rename itself. The returned size
// is the encoded byte count.
func WriteFile(path string, s *Snapshot) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 1<<20)
	n, err := Write(bw, s)
	if err != nil {
		return n, err
	}
	if err := bw.Flush(); err != nil {
		return n, fmt.Errorf("snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return n, fmt.Errorf("snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return n, fmt.Errorf("snapshot: %w", err)
	}
	name := tmp.Name()
	tmp = nil // success path: disable the cleanup deferral's Close
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return n, fmt.Errorf("snapshot: %w", err)
	}
	// The rename is only durable once the directory entry is on disk; fsync
	// the directory so a crash just after persist cannot resurrect the old
	// file (or, for a first write, lose the catalog entry entirely).
	syncDir(dir)
	return n, nil
}

// syncDir fsyncs a directory so the entries created or renamed in it are
// durable. Filesystems that refuse directory fsync (some network mounts)
// keep rename atomicity, so that failure is not worth failing the write.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// ReadFile loads the snapshot at path. The file is slurped in one
// stat-sized read (this is the warm-start hot path; no intermediate
// buffering layers).
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// SectionInfo describes one section for Inspect.
type SectionInfo struct {
	ID   uint32
	Name string
	// Bytes is the section's on-disk footprint (header + payload + any
	// padding); Offset is the payload's absolute file offset and Aligned
	// reports whether that offset sits on the zero-copy 8-byte boundary.
	Bytes   int64
	Offset  int64
	Aligned bool
}

// Info is the metadata Inspect reports without materializing the dataset.
type Info struct {
	// Version is the file's format version (1–3).
	Version uint16
	// DatasetVersion is the mutation-version counter (0 for files written
	// before the dynamic-graph subsystem).
	DatasetVersion uint64
	Name           string
	Vertices       int64
	Edges          int64
	Keywords       int64
	Named          bool
	HasCore        bool
	HasTree        bool
	HasTruss       bool
	Created        time.Time
	Sections       []SectionInfo
	Bytes          int64
	// ZeroCopy reports whether this host could open the file without
	// copying its bulk arrays (v3 layout, little-endian host, every
	// payload aligned); ZeroCopyReason says why not when it cannot.
	ZeroCopy       bool
	ZeroCopyReason string
}

// Inspect verifies the checksum and walks the section framing, decoding
// only the meta section. It is the `cexplorer snapshot inspect` backend.
func Inspect(r io.Reader) (*Info, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	cur, ver, err := openEnvelope(data)
	if err != nil {
		return nil, err
	}
	info := &Info{Version: ver, Bytes: int64(len(data))}
	hdrLen := int64(sectionHdrLen)
	if aligned(ver) {
		hdrLen = sectionHdrLenV3
	}
	allAligned := true
	for {
		id, sec, off, done, err := nextSection(cur, ver)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
		secAligned := off%sectionAlign == 0
		allAligned = allAligned && secAligned
		onDisk := hdrLen + int64(len(sec.b))
		if aligned(ver) {
			onDisk += int64(sectionPad(uint64(len(sec.b))))
		}
		info.Sections = append(info.Sections, SectionInfo{
			ID: id, Name: sectionName(id), Bytes: onDisk, Offset: off, Aligned: secAligned,
		})
		if id == secVersion {
			info.DatasetVersion = sec.u64()
		}
		if id == secMeta {
			nameLen := int(sec.u32())
			info.Name = string(sec.bytes(nameLen))
			info.Vertices = int64(sec.u64())
			info.Edges = int64(sec.u64())
			info.Keywords = int64(sec.u64())
			info.Created = time.Unix(int64(sec.u64()), 0)
			flags := sec.u64()
			if sec.err != nil {
				return nil, fmt.Errorf("snapshot: meta section: %w", sec.err)
			}
			info.Named = flags&flagNamed != 0
			info.HasCore = flags&flagCore != 0
			info.HasTree = flags&flagTree != 0
			info.HasTruss = flags&flagTruss != 0
		}
	}
	if cur.err != nil {
		return nil, cur.err
	}
	switch {
	case !aligned(ver):
		info.ZeroCopyReason = fmt.Sprintf("v%d layout predates zero-copy (v%d)", ver, FormatV3)
	case !hostLittleEndian:
		info.ZeroCopyReason = "big-endian host"
	case !allAligned:
		info.ZeroCopyReason = "misaligned section payload"
	default:
		info.ZeroCopy = true
	}
	return info, nil
}
