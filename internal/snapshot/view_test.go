package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"
)

// checkSnapshotEqual compares everything a snapshot carries, regardless of
// which decoder produced either side.
func checkSnapshotEqual(t testing.TB, want, got *Snapshot) {
	t.Helper()
	if want.Name != got.Name || want.Version != got.Version {
		t.Fatalf("identity differs: (%q, v%d) vs (%q, v%d)", want.Name, want.Version, got.Name, got.Version)
	}
	checkGraphEqual(t, want.Graph, got.Graph)
	if want.Core != nil && !reflect.DeepEqual(want.Core, got.Core) {
		t.Fatalf("core numbers differ")
	}
	if want.Tree != nil {
		checkTreeEqual(t, want.Tree, got.Tree)
	}
	if want.Truss != nil {
		checkTrussEqual(t, want.Graph, want.Truss, got.Truss)
	}
}

func TestDecodeViewRoundTrip(t *testing.T) {
	g := testGraph(t)
	s := fullSnapshot(t, "figure5", g)
	data := encode(t, s)

	view, err := DecodeView(data)
	if err != nil {
		t.Fatalf("view decode: %v", err)
	}
	if !view.ZeroCopy || view.Format != FormatV3 {
		t.Fatalf("ZeroCopy=%v Format=%d, want true/v%d", view.ZeroCopy, view.Format, FormatV3)
	}
	if !view.Graph.Borrowed() {
		t.Fatalf("view graph not marked borrowed")
	}
	checkSnapshotEqual(t, s, view)

	// The same bytes through the copy decoder agree too, and own their
	// memory.
	copied, err := Decode(data)
	if err != nil {
		t.Fatalf("copy decode: %v", err)
	}
	if copied.ZeroCopy || copied.Graph.Borrowed() {
		t.Fatalf("copy decode produced a borrowed snapshot")
	}
	checkSnapshotEqual(t, view, copied)
}

func TestDecodeViewAliasesInput(t *testing.T) {
	g := randomAttributed(t, 200, 900, 3)
	data := encode(t, fullSnapshot(t, "alias", g))
	view, err := DecodeView(data)
	if err != nil {
		t.Fatalf("view decode: %v", err)
	}
	raw := view.Graph.Raw()
	lo := uintptr(unsafe.Pointer(&data[0]))
	hi := lo + uintptr(len(data))
	inside := func(p unsafe.Pointer) bool {
		u := uintptr(p)
		return u >= lo && u < hi
	}
	if !inside(unsafe.Pointer(&raw.Adj[0])) {
		t.Fatalf("adjacency was copied, not viewed")
	}
	if !inside(unsafe.Pointer(&raw.Offsets[0])) {
		t.Fatalf("offsets were copied, not viewed")
	}
	if !inside(unsafe.Pointer(unsafe.StringData(raw.Names[0]))) {
		t.Fatalf("name contents were copied, not viewed")
	}
	if bb := view.Graph.BorrowedBytes(); bb <= 0 || bb >= int64(len(data)) {
		t.Fatalf("BorrowedBytes = %d for a %d-byte file", bb, len(data))
	}
}

func TestDecodeViewAlignmentInvariant(t *testing.T) {
	// Every section payload of a v3 file must start 8-aligned — that is the
	// layout property the whole zero-copy path rests on.
	data := encode(t, fullSnapshot(t, "aligned", randomAttributed(t, 137, 641, 9)))
	info, err := Inspect(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if !info.ZeroCopy {
		t.Fatalf("v3 file not zero-copy eligible: %s", info.ZeroCopyReason)
	}
	for _, sec := range info.Sections {
		if sec.Offset%sectionAlign != 0 || !sec.Aligned {
			t.Fatalf("section %s payload at offset %d not %d-aligned", sec.Name, sec.Offset, sectionAlign)
		}
	}
}

// TestFormatsDecodeIdentically: the committed v2 fixture and a v3
// encoding of the same dataset decode to the same snapshot.
func TestFormatsDecodeIdentically(t *testing.T) {
	v2, err := Decode(goldenV2(t))
	if err != nil {
		t.Fatalf("decode v2: %v", err)
	}
	v3, err := Decode(encode(t, goldenSnapshot(t)))
	if err != nil {
		t.Fatalf("decode v3: %v", err)
	}
	if v2.Format != FormatV2 || v3.Format != FormatV3 {
		t.Fatalf("formats: %d and %d", v2.Format, v3.Format)
	}
	checkSnapshotEqual(t, v2, v3)
}

func TestViewPairs(t *testing.T) {
	if _, err := viewPairs([]int32{1, 2, 3}); err == nil {
		t.Fatalf("odd-length edge table accepted")
	}
	ps, err := viewPairs([]int32{1, 2, 3, 4})
	if err != nil || len(ps) != 2 || ps[0] != [2]int32{1, 2} || ps[1] != [2]int32{3, 4} {
		t.Fatalf("viewPairs = %v, %v", ps, err)
	}
}

// writeTemp writes bytes to a fresh file under t.TempDir.
func writeTemp(t testing.TB, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
	return path
}

func TestOpenFileModes(t *testing.T) {
	s := goldenSnapshot(t)
	v3path := writeTemp(t, "v3.cxsnap", encode(t, s))
	v2path := writeTemp(t, "v2.cxsnap", goldenV2(t))

	t.Run("copy", func(t *testing.T) {
		got, m, err := OpenFile(v3path, OpenCopy)
		if err != nil || m != nil {
			t.Fatalf("copy open: snapshot=%v mapping=%v err=%v", got != nil, m, err)
		}
		if got.ZeroCopy {
			t.Fatalf("copy open returned a borrowed snapshot")
		}
		checkSnapshotEqual(t, s, got)
	})
	t.Run("mmap-v3", func(t *testing.T) {
		got, m, err := OpenFile(v3path, OpenMmap)
		if err != nil {
			t.Skipf("mmap unavailable: %v", err) // non-unix stub
		}
		if m == nil || !got.ZeroCopy {
			t.Fatalf("mmap open: mapping=%v ZeroCopy=%v", m, got.ZeroCopy)
		}
		checkSnapshotEqual(t, s, got)
		m.Release()
	})
	t.Run("auto-v3", func(t *testing.T) {
		got, m, err := OpenFile(v3path, OpenAuto)
		if err != nil {
			t.Fatalf("auto open: %v", err)
		}
		checkSnapshotEqual(t, s, got)
		if m != nil {
			m.Release()
		}
	})
	t.Run("auto-v2-falls-back-to-copy", func(t *testing.T) {
		got, m, err := OpenFile(v2path, OpenAuto)
		if err != nil {
			t.Fatalf("auto open v2: %v", err)
		}
		if m != nil || got.ZeroCopy {
			t.Fatalf("auto open of a v2 file must copy-decode (mapping=%v)", m)
		}
		checkSnapshotEqual(t, s, got)
	})
	t.Run("mmap-v2-fails", func(t *testing.T) {
		if _, m, err := OpenFile(v2path, OpenMmap); err == nil {
			if m != nil {
				m.Release()
			}
			t.Fatalf("strict mmap open of a v2 file succeeded")
		} else if !errors.Is(err, ErrNotZeroCopy) {
			t.Fatalf("strict mmap open of v2: %v, want ErrNotZeroCopy", err)
		}
	})
	t.Run("unknown-mode", func(t *testing.T) {
		if _, _, err := OpenFile(v3path, OpenMode("weird")); err == nil {
			t.Fatalf("unknown mode accepted")
		}
	})
}

func TestOpenFileCorruption(t *testing.T) {
	data := encode(t, fullSnapshot(t, "corrupt", testGraph(t)))

	t.Run("truncated-tail", func(t *testing.T) {
		path := writeTemp(t, "trunc.cxsnap", data[:len(data)-9])
		for _, mode := range []OpenMode{OpenCopy, OpenAuto, OpenMmap} {
			if got, m, err := OpenFile(path, mode); err == nil {
				if m != nil {
					m.Release()
				}
				t.Fatalf("mode %s opened a truncated file: %v", mode, got.Name)
			} else if errors.Is(err, ErrNotZeroCopy) {
				t.Fatalf("mode %s mapped truncation to the fallback sentinel: %v", mode, err)
			}
		}
	})
	t.Run("crc-flip", func(t *testing.T) {
		bad := bytes.Clone(data)
		bad[len(bad)/2] ^= 0x40 // payload bit; the trailer no longer matches
		path := writeTemp(t, "flip.cxsnap", bad)
		for _, mode := range []OpenMode{OpenCopy, OpenAuto, OpenMmap} {
			if got, m, err := OpenFile(path, mode); err == nil {
				if m != nil {
					m.Release()
				}
				t.Fatalf("mode %s opened a corrupt file: %v", mode, got.Name)
			} else if errors.Is(err, ErrNotZeroCopy) {
				t.Fatalf("mode %s mapped corruption to the fallback sentinel: %v", mode, err)
			}
		}
	})
	t.Run("empty-file", func(t *testing.T) {
		path := writeTemp(t, "empty.cxsnap", nil)
		for _, mode := range []OpenMode{OpenCopy, OpenAuto, OpenMmap} {
			if _, m, err := OpenFile(path, mode); err == nil {
				if m != nil {
					m.Release()
				}
				t.Fatalf("mode %s opened an empty file", mode)
			}
		}
	})
	t.Run("missing-file", func(t *testing.T) {
		for _, mode := range []OpenMode{OpenCopy, OpenAuto, OpenMmap} {
			if _, _, err := OpenFile(filepath.Join(t.TempDir(), "nope.cxsnap"), mode); err == nil {
				t.Fatalf("mode %s opened a missing file", mode)
			}
		}
	})
}

func TestMappingRefcount(t *testing.T) {
	path := writeTemp(t, "ref.cxsnap", encode(t, fullSnapshot(t, "ref", testGraph(t))))
	_, m, err := OpenFile(path, OpenMmap)
	if err != nil {
		t.Skipf("mmap unavailable: %v", err)
	}
	if m.Size() <= 0 {
		t.Fatalf("mapping size = %d", m.Size())
	}
	if !m.Retain() {
		t.Fatalf("retain on a live mapping failed")
	}
	m.Release() // the extra retain
	m.Release() // the OpenFile reference; count hits zero, pages unmapped
	if m.Retain() {
		t.Fatalf("retain succeeded on a dead mapping")
	}
}

func TestParseOpenMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want OpenMode
		ok   bool
	}{
		{"auto", OpenAuto, true},
		{"mmap", OpenMmap, true},
		{"copy", OpenCopy, true},
		{"", OpenAuto, true},
		{"MMAP", "", false},
		{"zero-copy", "", false},
	} {
		got, err := ParseOpenMode(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Fatalf("ParseOpenMode(%q) = %v, %v", tc.in, got, err)
		}
		if !tc.ok && err == nil {
			t.Fatalf("ParseOpenMode(%q) accepted", tc.in)
		}
	}
}
