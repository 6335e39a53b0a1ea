package pathexpr

import (
	"strconv"
	"strings"
	"testing"
)

// bindShape writes lits back into a shape's slots: $n becomes 'lits[n-1]'.
// A slot is the only place a shape holds a $, since labels cannot.
func bindShape(shape string, lits []string) string {
	var b strings.Builder
	for i := 0; i < len(shape); i++ {
		if shape[i] != '$' {
			b.WriteByte(shape[i])
			continue
		}
		j := i + 1
		for j < len(shape) && shape[j] >= '0' && shape[j] <= '9' {
			j++
		}
		n, _ := strconv.Atoi(shape[i+1 : j])
		b.WriteString("'" + lits[n-1] + "'")
		i = j - 1
	}
	return b.String()
}

// FuzzShape checks that Shape refuses exactly the texts Parse refuses, with
// Parse's error, and that binding an accepted text's shape to its own
// literals gives the text back.
func FuzzShape(f *testing.F) {
	for _, seed := range []string{
		"/a",
		" //Item[name='x']/Category ",
		"//Item[ name = 'a b' ]//InCategory[Category='$1']",
		"//a[x='1']//a[x='1']",
		"//a[x='1']//a[x='2']",
		"/a[b=''']",
		"/a[b='x'y']",
		"/*[b='x']",
		"/a[b=x]",
		"/a[",
		"///",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, perr := Parse(text)
		shape, lits, serr := Shape(text, nil)
		if perr != nil {
			if serr == nil || serr.Error() != perr.Error() {
				t.Fatalf("%q: Parse refuses (%v), Shape says %v", text, perr, serr)
			}
			return
		}
		if serr != nil {
			t.Fatalf("%q: Parse accepts, Shape refuses: %v", text, serr)
		}
		if got := bindShape(shape, lits); got != text {
			t.Fatalf("%q: shape %q bound to %q gives %q", text, shape, lits, got)
		}
		var want []string
		for _, st := range p.Steps {
			if st.Pred != nil {
				want = append(want, st.Pred.Value)
			}
		}
		if strings.Join(lits, "\x00") != strings.Join(want, "\x00") || len(lits) != len(want) {
			t.Fatalf("%q: literals %q, predicates hold %q", text, lits, want)
		}
		if len(lits) > 0 {
			if _, err := Parse(shape); err == nil {
				t.Fatalf("%q: shape %q parses as a query text", text, shape)
			}
		} else if shape != text {
			t.Fatalf("%q: a text without literals has shape %q", text, shape)
		}
	})
}
