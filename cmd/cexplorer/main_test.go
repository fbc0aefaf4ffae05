package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cexplorer/internal/repl"
	"cexplorer/internal/snapshot"
)

// runCmd runs one operator subcommand and returns what it printed.
func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := runTool(&out, args)
	return out.String(), err
}

// writeJournal appends three records (four ops of every kind, then an
// empty batch) the way the server's write path does.
func writeJournal(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "figure5"+snapshot.JournalExt)
	for _, rec := range []snapshot.JournalRecord{
		{Version: 4, Ops: []snapshot.JournalOp{
			{Kind: snapshot.JournalAddEdge, U: 0, V: 5},
			{Kind: snapshot.JournalAddEdge, U: 1, V: 7},
		}},
		{Version: 5, Ops: []snapshot.JournalOp{
			{Kind: snapshot.JournalRemoveEdge, U: 0, V: 5},
			{Kind: snapshot.JournalAddVertex, Name: "zed", Keywords: []string{"x", "y"}},
		}},
		{Version: 6},
	} {
		if err := snapshot.AppendJournal(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

const journalReport = `  record 1    seq=4      ops=2    addEdge=2                                    54 bytes  crc OK
  record 2    seq=5      ops=2    removeEdge=1 addVertex=1                     67 bytes  crc OK
  record 3    seq=6      ops=0    (empty)                                      20 bytes  crc OK
PATH: journal v1, 3 records (4 ops), 149 bytes, checksums OK
  versions  4..6
  ops       addEdge=2 removeEdge=1 addVertex=1
`

func TestJournalInspect(t *testing.T) {
	path := writeJournal(t)
	got, err := runCmd(t, "journal", "inspect", path)
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.ReplaceAll(journalReport, "PATH", path); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}

	got, err = runCmd(t, "journal", "inspect", "-v", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"    addEdge    1-7\n",
		"    removeEdge 0-5\n",
		"    addVertex  name=\"zed\" keywords=[x y]\n",
	} {
		if !strings.Contains(got, line) {
			t.Errorf("-v output lacks %q:\n%s", line, got)
		}
	}
}

func TestJournalInspectTornTail(t *testing.T) {
	path := writeJournal(t)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := runCmd(t, "journal", "inspect", path)
	if err != nil {
		t.Fatalf("a torn tail is not corruption: %v", err)
	}
	want := strings.ReplaceAll(journalReport, "PATH", path) +
		"  torn tail 3 trailing bytes (partial append; replay and tailers skip it)\n"
	if got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestJournalInspectBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad"+snapshot.JournalExt)
	if err := os.WriteFile(path, []byte("NOTAJRNL0000000000"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := runCmd(t, "journal", "inspect", path)
	if !errors.Is(err, snapshot.ErrJournalCorrupt) {
		t.Fatalf("err = %v, want one matching snapshot.ErrJournalCorrupt", err)
	}
}

// TestJournalInspectNonConsecutiveVersions: boot replay stops at a record
// that is not one version past the one before it, so inspect fails there.
func TestJournalInspectNonConsecutiveVersions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gap"+snapshot.JournalExt)
	for _, v := range []uint64{4, 5, 7} {
		if err := snapshot.AppendJournal(path, snapshot.JournalRecord{Version: v}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := runCmd(t, "journal", "inspect", path)
	if !errors.Is(err, snapshot.ErrJournalCorrupt) || !strings.Contains(err.Error(), "record 3") {
		t.Fatalf("err = %v, want one matching snapshot.ErrJournalCorrupt that names record 3", err)
	}
	if !strings.Contains(out, "seq=5") || strings.Contains(out, "seq=7") {
		t.Fatalf("output should list records 1-2 only:\n%s", out)
	}
}

func TestJournalInspectShortHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short"+snapshot.JournalExt)
	if err := os.WriteFile(path, []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := runCmd(t, "journal", "inspect", path)
	if err != nil {
		t.Fatal(err)
	}
	want := path + ": 3 bytes, no complete journal header (a partial first append; replay truncates it)\n"
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestFleetStatus(t *testing.T) {
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/v1/health" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(repl.HealthStatus{
			Role: "replica", FleetEpoch: 2, Primary: "http://p:8080", UptimeSec: 42,
			Datasets: map[string]repl.DatasetHealth{
				"figure5": {Epoch: 7, AppliedSeq: 3, HeadSeq: 5, Phase: "tailing"},
				"dblp":    {Epoch: 9, AppliedSeq: 1, HeadSeq: 1, Phase: "tailing"},
			},
		})
	}))
	defer up.Close()
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close()

	got, err := runCmd(t, "fleet", "status", "-nodes", up.URL+"/,"+down.URL)
	if err == nil {
		t.Fatal("an unreachable node must make fleet status fail")
	}
	lines := strings.Split(got, "\n")
	pad := func(s string) string { return s + strings.Repeat(" ", 32-len(s)) }
	want := []string{
		"NODE                             ROLE        EPOCH   UPTIME PRIMARY",
		pad(up.URL) + " replica         2      42s http://p:8080",
		"",
		"NODE                             DATASET                           EPOCH    APPLIED       HEAD    LAG PHASE",
		pad(up.URL) + " dblp                                  9          1          1      0 tailing",
		pad(up.URL) + " figure5                               7          3          5      2 tailing",
		"",
	}
	if len(lines) != len(want)+1 {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want)+1, got)
	}
	downRow := lines[2]
	if !strings.HasPrefix(downRow, pad(down.URL)+" DOWN            -        - (") {
		t.Errorf("down row = %q", downRow)
	}
	lines = append(lines[:2], lines[3:]...)
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d:\n got %q\nwant %q", i, lines[i], want[i])
		}
	}
}

func TestSnapshotBuildThenInspect(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dblp.cxsnap")
	got, err := runCmd(t, "snapshot", "build", "-dblp.n", "300", "-o", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got, "dblp: 300 vertices, ") {
		t.Fatalf("build printed %q", got)
	}
	got, err = runCmd(t, "snapshot", "inspect", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		path + ": snapshot v3, ",
		"  dataset   \"dblp\"\n",
		"  graph     300 vertices, ",
		"  indexes   core=true cltree=true ktruss=true\n",
	} {
		if !strings.Contains(got, line) {
			t.Errorf("inspect output lacks %q:\n%s", line, got)
		}
	}
}

// TestSnapshotBuildRejectsConflictingInputs: each input flag names a
// source, so a second one (or -attrs without -edges) is an error naming
// the flags, not an input silently dropped.
func TestSnapshotBuildRejectsConflictingInputs(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "x.cxsnap")
	for _, tc := range []struct {
		args  []string
		flags []string
	}{
		{[]string{"-edges", "g.txt", "-dblp.n", "1000"}, []string{"-edges", "-dblp.n"}},
		{[]string{"-edges", "g.txt", "-json", "g.json"}, []string{"-edges", "-json"}},
		{[]string{"-json", "g.json", "-attrs", "a.txt"}, []string{"-attrs", "-edges"}},
		{[]string{"-dblp.n", "300", "-attrs", "a.txt"}, []string{"-attrs", "-edges"}},
	} {
		args := append([]string{"snapshot", "build", "-o", out}, tc.args...)
		_, err := runCmd(t, args...)
		if err == nil {
			t.Fatalf("%v: accepted", tc.args)
		}
		for _, f := range tc.flags {
			if !strings.Contains(err.Error(), f) {
				t.Errorf("%v: error %q does not name %s", tc.args, err, f)
			}
		}
		if _, statErr := os.Stat(out); statErr == nil {
			t.Fatalf("%v: wrote %s anyway", tc.args, out)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	_, err := runCmd(t, "snapshot", "bogus")
	if err == nil || !strings.Contains(err.Error(), "build|inspect") {
		t.Fatalf("err = %v, want a usage error listing build|inspect", err)
	}
	if _, err := runCmd(t, "journal", "inspect", "-bogus", "x"); !errors.Is(err, errUsage) {
		t.Fatalf("bad flag: err = %v, want errUsage", err)
	}
}
