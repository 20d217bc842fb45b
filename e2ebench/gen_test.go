package main

import (
	"bytes"
	"testing"
)

// digest serializes everything a run would send: the facts and every
// request body in phase order.
func digest(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	ds, err := generate(workload, seed, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	b.WriteString(ds.Rules)
	b.WriteString(ds.Facts)
	b.Write(ds.First.Body)
	for _, ph := range ds.Phases {
		for _, r := range ph.Schedule {
			b.Write(r.Body)
		}
		for _, pool := range ph.Pools {
			for _, r := range pool {
				b.Write(r.Body)
			}
		}
	}
	return b.Bytes()
}

func TestGenerationDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a, b := digest(t, w, 7), digest(t, w, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different datasets or request sequences", w)
		}
		if c := digest(t, w, 8); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same dataset and request sequence", w)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := generate("no-such-workload", 1, 1, 2); err == nil {
		t.Fatal("generate accepted an unknown workload")
	}
}

func TestChecksRejectWrongAnswers(t *testing.T) {
	want := singleColumn([]string{"a", "b", "c"})
	if err := want.check([][]string{{"c"}, {"a"}, {"b"}}); err != nil {
		t.Fatalf("rows in another order rejected: %v", err)
	}
	for _, rows := range [][][]string{{{"a"}, {"b"}}, {{"a"}, {"b"}, {"d"}}, {{"a"}, {"a"}, {"b"}}} {
		if want.check(rows) == nil {
			t.Errorf("wrong answer %v accepted", rows)
		}
	}
	g := &grid{h: 2, w: 2, names: []string{"g0", "g1", "g2", "g3"}, index: map[string]int32{"g0": 0, "g1": 1, "g2": 2, "g3": 3}}
	from := gridCheck{g: g, i: 0, j: 0}
	if err := from.check([][]string{{"g3"}, {"g1"}, {"g2"}}); err != nil {
		t.Fatalf("right grid answer rejected: %v", err)
	}
	for _, rows := range [][][]string{{{"g1"}, {"g2"}}, {{"g1"}, {"g1"}, {"g2"}}, {{"g0"}, {"g1"}, {"g2"}}} {
		if from.check(rows) == nil {
			t.Errorf("wrong grid answer %v accepted", rows)
		}
	}
}
