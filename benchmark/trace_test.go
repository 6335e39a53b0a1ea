package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	b := tr.buf()
	// root [0,100] with children [10,30] and [40,90]; the second has a
	// child of its own [50,60].
	root, c1, c2, g := b.id(), b.id(), b.id(), b.id()
	b.add(c1, root, 1, "parse", 10, 30)
	b.add(g, c2, 1, "merge", 50, 60)
	b.add(c2, root, 1, "exec", 40, 90)
	b.add(root, 0, 1, "request", 0, 100)
	spans := tr.all()
	self := selfTimes(spans)
	want := map[int32]int64{root: 30, c1: 20, c2: 40, g: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	// Self times of a request's spans add up to its root's duration.
	var sum int64
	for _, s := range self {
		sum += s
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
	for _, a := range aggregateSpans(spans) {
		if a.Name == "request" && (a.Count != 1 || a.SelfMs != 30e-6) {
			t.Errorf("aggregate of request = %+v, want count 1 and self 30 ns", a)
		}
		if a.Name == "exec" && a.P50Us != 0.05 {
			t.Errorf("p50 of exec = %v us, want 0.05", a.P50Us)
		}
	}
}

func TestTimedNestsAndWriteSpans(t *testing.T) {
	tr := newTracer()
	b := tr.buf()
	root, req := b.id(), tr.request()
	t0 := tr.now()
	b.timed("child", root, req, func() {})
	b.add(root, 0, req, "root", t0, tr.now())
	spans := tr.all()
	if len(spans) != 2 || spans[0].Parent != root || spans[0].Req != req {
		t.Fatalf("spans = %+v, want a child of %d and its root", spans, root)
	}
	if spans[0].Start < spans[1].Start || spans[0].End > spans[1].End {
		t.Errorf("child %+v is not inside root %+v", spans[0], spans[1])
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(lines) != 2 || !strings.Contains(lines[0], `"name":"child"`) {
		t.Errorf("span file:\n%s", data)
	}
}
