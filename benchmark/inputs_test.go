package main

import "testing"

// The same seed gives the same inputs, another seed gives others, and the
// inputs at seed 1 are the pinned ones.
func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloadDefs {
		var digests [3]string
		for i, seed := range []int64{1, 1, 2} {
			in, err := generateInputs(w.name, seed)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			digests[i] = in.digest()
			for c := range in.schedules {
				if len(in.schedules[c]) == 0 {
					t.Errorf("%s: schedule %d is empty", w.name, c)
				}
			}
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: the same seed gave two digests", w.name)
		}
		if digests[0] == digests[2] {
			t.Errorf("%s: seeds 1 and 2 gave the same digest", w.name)
		}
		if want := pinnedDigests[w.name]; digests[0] != want {
			t.Errorf("%s: digest at seed 1 is %s, pinned %s", w.name, digests[0], want)
		}
	}
}

// Whatever the number of clients, together they send every scheduled
// operation, and on cold-adhoc no expression is sent by two of them.
func TestScheduleSplit(t *testing.T) {
	in, err := generateInputs("cold-adhoc", 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range in.schedules {
		total += len(s)
	}
	for n := 1; n <= maxClients; n++ {
		owner := map[opRef]int{}
		sent := 0
		for i := 0; i < n; i++ {
			for _, op := range in.schedule(i, n) {
				sent++
				if o, seen := owner[op]; seen && o != i {
					t.Fatalf("%d clients: %+v is sent by clients %d and %d", n, op, o, i)
				}
				owner[op] = i
			}
		}
		if sent != total || len(owner) != 6*coldQueriesPerPlanner {
			t.Errorf("%d clients send %d operations over %d expressions, want %d over %d",
				n, sent, len(owner), total, 6*coldQueriesPerPlanner)
		}
	}
	// The served workloads send every hot query equally often.
	hot, err := generateInputs("hot-line", 1)
	if err != nil {
		t.Fatal(err)
	}
	count := map[opRef]int{}
	for _, op := range hot.schedule(0, 2) {
		count[op]++
	}
	if len(count) != 16 {
		t.Errorf("hot-line: a client sends %d distinct queries, want 16", len(count))
	}
	for op, n := range count {
		if n != 2 {
			t.Errorf("hot-line: %+v is sent %d times per cycle of two schedules, want 2", op, n)
		}
	}
}
