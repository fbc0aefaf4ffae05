package server

// The one encoder of every response that carries a community: /search and
// /detect on both route families, and the explore state. It appends JSON by
// hand, names copied from a per-dataset table of pre-quoted names, and
// streams the body through a pooled buffer written out as it fills: no
// per-request copy of the answer, and a router can relay the head of a body
// while the tail is still being encoded. Output is byte for byte what encoding/json made of
// the structs this replaced (field order, omitempty, HTML-safe escaping,
// trailing newline); FuzzEncodeCommunityPage holds it to that.

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"cexplorer/internal/api"
	"cexplorer/internal/graph"
)

// pageFlushAt is the buffered size at which the encoder writes out.
const pageFlushAt = 64 << 10

// pageEncoder streams one JSON body to w. The first failed write sets err,
// and encoding stops there: the client has hung up.
type pageEncoder struct {
	w   io.Writer
	buf []byte
	err error
}

// Headroom past the flush mark: the item that crosses it rarely regrows buf.
var pageEncoders = sync.Pool{New: func() any { return &pageEncoder{buf: make([]byte, 0, pageFlushAt+4<<10)} }}

// encodePage runs body over a pooled encoder on w and writes what remains.
func encodePage(w http.ResponseWriter, body func(e *pageEncoder)) {
	w.Header().Set("Content-Type", "application/json")
	e := pageEncoders.Get().(*pageEncoder)
	e.w, e.err = w, nil
	body(e)
	e.flush()
	e.w = nil
	pageEncoders.Put(e)
}

// flush writes the buffer out and reports whether encoding should go on.
func (e *pageEncoder) flush() bool {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
	return e.err == nil
}

// spill is flush for a loop that appends to a local copy of the buffer: it
// writes buf out once it has filled and returns the buffer to go on with.
func (e *pageEncoder) spill(buf []byte) ([]byte, bool) {
	if len(buf) < pageFlushAt {
		return buf, true
	}
	e.buf = buf
	ok := e.flush()
	return e.buf, ok
}

func (e *pageEncoder) raw(s string) { e.buf = append(e.buf, s...) }

func (e *pageEncoder) int(key string, v int) {
	e.buf = strconv.AppendInt(append(e.buf, key...), int64(v), 10)
}

func (e *pageEncoder) str(key, s string) { e.buf = appendJSONString(append(e.buf, key...), s) }

// ids writes key and an id list, flushing as the buffer fills; a nil list
// is null, as encoding/json has it.
func (e *pageEncoder) ids(key string, vs []int32) {
	if vs == nil {
		e.buf = append(append(e.buf, key...), "null"...)
		return
	}
	buf := append(append(e.buf, key...), '[')
	for i, v := range vs {
		if i > 0 {
			buf = append(buf, ',')
		}
		var ok bool
		if buf, ok = e.spill(strconv.AppendInt(buf, int64(v), 10)); !ok {
			return
		}
	}
	e.buf = append(buf, ']')
}

// quotedNames is a graph's name table as the encoder writes it: every name
// a JSON string, laid end to end with commas between, so that a name costs
// one copy with no scan and the names of a run of consecutive ids are one
// copy too. It takes about the name table's size again (2.4 MB for the
// benchmark's 100,000 authors) and is built once per table: see api.Dataset.NameForm.
type quotedNames struct {
	blob []byte
	end  []uint32 // blob[end[v-1]:end[v]] is v's name and the comma after it
}

func quoteNames(g *graph.Graph) any {
	q := &quotedNames{end: make([]uint32, g.N())}
	for v := range q.end {
		q.blob = append(appendJSONString(q.blob, g.Name(int32(v))), ',')
		q.end[v] = uint32(len(q.blob))
	}
	return q
}

// maxNameRun bounds the bytes of consecutive names copied at once, and with
// it how far one copy can take the buffer past the flush mark.
const maxNameRun = 2 << 10

// names writes key and the names of vs; the list is never null.
func (e *pageEncoder) names(key string, vs []int32, q *quotedNames) {
	buf := append(append(e.buf, key...), '[')
	for i := 0; i < len(vs); {
		start := uint32(0)
		if vs[i] > 0 {
			start = q.end[vs[i]-1]
		}
		j := i + 1
		for j < len(vs) && vs[j] == vs[j-1]+1 && q.end[vs[j-1]]-start < maxNameRun {
			j++
		}
		if i > 0 {
			buf = append(buf, ',')
		}
		var ok bool
		if buf, ok = e.spill(append(buf, q.blob[start:q.end[vs[j-1]]-1]...)); !ok {
			return
		}
		i = j
	}
	e.buf = append(buf, ']')
}

// strings writes key and a string list, or nothing when the list is empty:
// every string list on these shapes is omitempty.
func (e *pageEncoder) strings(key string, ss []string) {
	if len(ss) == 0 {
		return
	}
	e.raw(key)
	for i, s := range ss {
		sep := ","
		if i == 0 {
			sep = "["
		}
		e.str(sep, s)
	}
	e.raw("]")
}

// communities writes key and a community list: null when nil, as
// encoding/json has a nil slice, unless names are given. A search's list is
// never nil, and each of its communities carries the names of its vertices
// and, where place returns one, its marshalled placement.
func (e *pageEncoder) communities(key string, cs []api.Community, names *quotedNames, place func(api.Community) []byte) {
	if e.raw(key); cs == nil && names == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	for i := range cs {
		c := &cs[i]
		if i > 0 {
			e.raw(",")
		}
		e.str(`{"method":`, c.Method)
		e.ids(`,"vertices":`, c.Vertices)
		e.strings(`,"sharedKeywords":`, c.SharedKeywords)
		e.strings(`,"theme":`, c.Theme)
		if names != nil {
			e.names(`,"names":`, c.Vertices, names)
			if place != nil {
				if pl := place(*c); pl != nil {
					e.buf = append(append(e.buf, `,"placement":`...), pl...)
				}
			}
		}
		if e.raw("}"); e.err != nil {
			return
		}
	}
	e.raw("]")
}

// pageInfo is the pagination echo of a v1 community list.
type pageInfo struct{ total, limit, offset int }

// communityPage writes a /search (names given) or /detect body; info is nil
// on the legacy routes, which echo no pagination.
func (e *pageEncoder) communityPage(page []api.Community, names *quotedNames, place func(api.Community) []byte, info *pageInfo, elapsed time.Duration) {
	e.communities(`{"communities":`, page, names, place)
	if info != nil {
		e.int(`,"total":`, info.total)
		e.int(`,"limit":`, info.limit)
		e.int(`,"offset":`, info.offset)
	}
	// Whole microseconds over 1000: always in the range where encoding/json,
	// too, picks the shortest 'f' form.
	e.buf = strconv.AppendFloat(append(e.buf, `,"elapsedMs":`...), msec(elapsed), 'f', -1, 64)
	e.raw("}\n")
}

// exploreState writes an api.ExploreState.
func (e *pageEncoder) exploreState(st *api.ExploreState) {
	e.str(`{"id":`, st.ID)
	e.str(`,"dataset":`, st.Dataset)
	e.int(`,"vertex":`, int(st.Vertex))
	e.int(`,"k":`, st.K)
	e.strings(`,"keywords":`, st.Keywords)
	e.int(`,"steps":`, st.Steps)
	e.int(`,"maxK":`, st.MaxK)
	e.int(`,"anchorCore":`, int(st.AnchorCore))
	e.ids(`,"ring":`, st.Ring)
	e.int(`,"ringSize":`, st.RingSize)
	e.communities(`,"communities":`, st.Communities, nil, nil)
	e.buf = st.CreatedAt.AppendFormat(append(e.buf, `,"createdAt":"`...), time.RFC3339Nano)
	e.buf = st.ExpiresAt.AppendFormat(append(e.buf, `","expiresAt":"`...), time.RFC3339Nano)
	e.raw("\"}\n")
}

// jsonEscape holds, for each byte encoding/json does not copy into a string
// as it is (HTML escaping on), what it writes instead; "" marks the safe
// bytes. The entries past ASCII only mark those bytes unsafe: they are
// decoded as runes before anything is written for them.
var jsonEscape = func() (t [256]string) {
	for c := range t {
		if c < 0x20 || c >= utf8.RuneSelf || c == '<' || c == '>' || c == '&' {
			t[c] = fmt.Sprintf(`\u%04x`, c)
		}
	}
	t['"'], t['\\'], t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = `\"`, `\\`, `\b`, `\f`, `\n`, `\r`, `\t`
	return t
}()

// appendJSONString appends s as a JSON string. Nearly every name is all
// safe bytes and is copied whole after one table-driven scan; the rest of a
// string goes rune by rune from its first unsafe byte on, with U+2028/2029
// escaped and invalid UTF-8 replaced by U+FFFD as encoding/json does.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	i := 0
	for i < len(s) && jsonEscape[s[i]] == "" {
		i++
	}
	dst = append(dst, s[:i]...)
	for s = s[i:]; len(s) > 0; {
		c, size := utf8.DecodeRuneInString(s)
		switch {
		case c < utf8.RuneSelf && jsonEscape[c] != "":
			dst = append(dst, jsonEscape[c]...)
		case c == utf8.RuneError && size == 1:
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, `\u202`...), byte('0'+c&0xF))
		default:
			dst = append(dst, s[:size]...)
		}
		s = s[size:]
	}
	return append(dst, '"')
}
