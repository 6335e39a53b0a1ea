package xmltree

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse checks that every document Parse accepts survives a round trip:
// serialize, reparse, and compare. Seeds are the repository's sample
// documents; testdata/fuzz/FuzzParse holds inputs that once broke it.
func FuzzParse(f *testing.F) {
	seeds, err := filepath.Glob("../../testdata/*.xml")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		out := d.String()
		d2, err := ParseString(out)
		if err != nil {
			t.Fatalf("reparse of serialized %q: %v\n%s", data, err, out)
		}
		if !d.Equal(d2) {
			t.Fatalf("round trip of %q changed the document:\n%s", data, out)
		}
	})
}
