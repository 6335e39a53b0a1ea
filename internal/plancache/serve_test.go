package plancache

import (
	"testing"

	"xmlsql/internal/core"
	"xmlsql/internal/workloads"
)

// TestServeKeepsReadsNotWrites serves texts of one shape after its template:
// a read keeps its bound copy under its own text, so a second read is served
// the same plan (and its compiled plan); a write keeps nothing, so writes
// with fresh literals leave the cache as they found it.
func TestServeKeepsReadsNotWrites(t *testing.T) {
	c, s := New(16), workloads.XMark()
	serve := func(text string, write bool) *Plan {
		t.Helper()
		pl, err := c.Serve(s, text, "", false, write, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	tmpl := serve("//Item[name='a']", false)
	if serve("//Item[name='a']", false) != tmpl || serve("//Item[name='a']", true) != tmpl {
		t.Fatal("the template's own text is not served the template")
	}
	read := serve("//Item[name='b']", false)
	if read == tmpl || serve("//Item[name='b']", false) != read {
		t.Fatal("a repeated read is not served its first bound copy")
	}
	if st := c.Stats(); st.Entries != 2 || st.Misses != 1 || st.Hits != 4 {
		t.Fatalf("after reads: %+v, want 2 entries, 1 miss, 4 hits", st)
	}
	for _, text := range []string{"//Item[name='c']", "//Item[name='c']", "//Item[name='d']"} {
		if w := serve(text, true); w == tmpl || w.Tr.Query.SQL() == tmpl.Tr.Query.SQL() {
			t.Fatalf("%q: a write is served the template unbound", text)
		}
	}
	if st := c.Stats(); st.Entries != 2 || st.Misses != 1 {
		t.Fatalf("after writes: %+v, want 2 entries and 1 miss", st)
	}
}
