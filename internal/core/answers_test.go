package core

import (
	"reflect"
	"testing"
)

// TestSortAnswersDedup is the regression test for the duplicate-answer
// guard: sortAnswers used to assume "equal keyword sets cannot happen for
// distinct answers", so identical communities surfaced by different
// candidate orders were returned twice. They must collapse to one answer.
func TestSortAnswersDedup(t *testing.T) {
	answers := []Community{
		{Vertices: []int32{1, 2, 3}, SharedKeywords: []int32{5, 7}},
		{Vertices: []int32{1, 2, 3}, SharedKeywords: []int32{5}},
		{Vertices: []int32{1, 2, 3}, SharedKeywords: []int32{5, 7}}, // duplicate of the first
	}
	got := sortAnswers(answers)
	want := []Community{
		{Vertices: []int32{1, 2, 3}, SharedKeywords: []int32{5}},
		{Vertices: []int32{1, 2, 3}, SharedKeywords: []int32{5, 7}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sortAnswers = %+v, want %+v", got, want)
	}
}

// TestSortAnswersKeepsDistinctCommunities checks the guard only collapses
// exact duplicates: two answers sharing a keyword set but covering different
// vertices both survive.
func TestSortAnswersKeepsDistinctCommunities(t *testing.T) {
	answers := []Community{
		{Vertices: []int32{4, 5, 6}, SharedKeywords: []int32{5, 7}},
		{Vertices: []int32{1, 2, 3}, SharedKeywords: []int32{5, 7}},
	}
	got := sortAnswers(answers)
	if len(got) != 2 {
		t.Fatalf("distinct communities collapsed: %+v", got)
	}
	if got[0].Vertices[0] != 1 || got[1].Vertices[0] != 4 {
		t.Fatalf("unexpected order: %+v", got)
	}
}

// TestSetIDs exercises the interned set-ID scheme that replaced string map
// keys: equal sets get equal IDs, distinct sets distinct IDs, the empty set
// is 0, and reset starts a fresh namespace.
func TestSetIDs(t *testing.T) {
	var si setIDs
	si.reset()
	if id := si.id(nil); id != 0 {
		t.Fatalf("empty set id = %d", id)
	}
	a := si.id([]int32{1, 2, 3})
	b := si.id([]int32{1, 2, 4})
	c := si.id([]int32{1, 2}) // prefix of a
	if a == b || a == c || b == c {
		t.Fatalf("distinct sets collided: %d %d %d", a, b, c)
	}
	if again := si.id([]int32{1, 2, 3}); again != a {
		t.Fatalf("same set interned twice: %d vs %d", again, a)
	}
	si.reset()
	if si.n != 0 || len(si.steps) != 0 {
		t.Fatalf("reset left state: n=%d steps=%d", si.n, len(si.steps))
	}
	if fresh := si.id([]int32{9}); fresh != 1 {
		t.Fatalf("post-reset id = %d", fresh)
	}
}
