package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestLoadEdgeList(t *testing.T) {
	in := `# comment
0 1
1 2

2 0
`
	g, err := LoadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("N,M = %d,%d", g.N(), g.M())
	}
}

func TestLoadEdgeListErrors(t *testing.T) {
	cases := []string{"0", "a b", "0 b", "-1 2"}
	for _, c := range cases {
		if _, err := LoadEdgeList(strings.NewReader(c)); err == nil {
			t.Fatalf("input %q should fail", c)
		}
	}
}

func TestLoadAttributed(t *testing.T) {
	edges := "0 1\n1 2\n"
	attrs := "0\tjim gray\ttransaction data\n1\tmichael stonebraker\tdata system\n2\t\tweb\n"
	g, err := LoadAttributed(strings.NewReader(edges), strings.NewReader(attrs))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Named() {
		t.Fatal("should be named")
	}
	v, ok := g.VertexByName("jim gray")
	if !ok || v != 0 {
		t.Fatalf("jim gray = %d,%v", v, ok)
	}
	kws := g.KeywordStrings(0)
	if len(kws) != 2 {
		t.Fatalf("keywords = %v", kws)
	}
	if got := g.KeywordStrings(2); len(got) != 1 || got[0] != "web" {
		t.Fatalf("v2 keywords = %v", got)
	}
}

func TestLoadAttributedBadID(t *testing.T) {
	edges := "0 1\n"
	attrs := "zz\tname\tkw\n"
	if _, err := LoadAttributed(strings.NewReader(edges), strings.NewReader(attrs)); err == nil {
		t.Fatal("bad attr id should fail")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := testGraph(t)
	jg := g.ToJSONGraph("test")
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := FromJSONGraph(jg)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip size mismatch: %d/%d vs %d/%d", g2.N(), g2.M(), g.N(), g.M())
	}
	for v := int32(0); v < int32(g.N()); v++ {
		if g2.Name(v) != g.Name(v) {
			t.Fatalf("name mismatch at %d", v)
		}
		a, b := g.KeywordStrings(v), g2.KeywordStrings(v)
		if len(a) != len(b) {
			t.Fatalf("keyword mismatch at %d: %v vs %v", v, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("keyword mismatch at %d: %v vs %v", v, a, b)
			}
		}
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadJSON(t *testing.T) {
	doc := `{"name":"g","vertices":[{"id":0,"name":"a","keywords":["x"]},{"id":1}],"edges":[[0,1]]}`
	g, err := LoadJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || g.M() != 1 {
		t.Fatalf("N,M = %d,%d", g.N(), g.M())
	}
	if _, err := LoadJSON(strings.NewReader("{")); err == nil {
		t.Fatal("bad json should fail")
	}
	if _, err := LoadJSON(strings.NewReader(`{"vertices":[{"id":-2}],"edges":[]}`)); err == nil {
		t.Fatal("negative id should fail")
	}
}

func TestEdgeListAndAttributesRoundTrip(t *testing.T) {
	g := testGraph(t)
	var el, at bytes.Buffer
	if err := g.WriteEdgeList(&el); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteAttributes(&at); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadAttributed(bytes.NewReader(el.Bytes()), bytes.NewReader(at.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("write/read mismatch")
	}
	if name := g2.Name(0); name != "a" {
		t.Fatalf("name round trip = %q", name)
	}
}
