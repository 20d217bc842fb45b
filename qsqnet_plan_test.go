package chainlog

import (
	"reflect"
	"testing"
)

// The QSQ-net plan's projection keeps each free variable's first column
// and filters repeated variables without a dedup pass; goals with
// repeated variables, holes and constants must answer exactly as the
// seminaive fixpoint does.
func TestQSQNetProjectionMatchesSeminaive(t *testing.T) {
	db := mustDB(t, `
tcn(X, Y) :- e(X, Y).
tcn(X, Z) :- tcn(X, Y), tcn(Y, Z).
p(A, B, C) :- e(A, B), tcn(B, C).
p(A, B, C) :- e(A, C), e(C, B).
e(a, b). e(b, c). e(c, a). e(c, d). e(d, d). e(b, b).
`)
	cases := []struct {
		tmpl string
		args [][]string
	}{
		{"tcn(X, X)", [][]string{nil}},
		{"tcn(X, Y)", [][]string{nil}},
		{"tcn(?, X)", [][]string{{"a"}, {"d"}, {"zz"}}},
		{"p(?, X, X)", [][]string{{"a"}, {"b"}, {"c"}, {"d"}}},
		{"p(X, X, X)", [][]string{nil}},
		{"p(X, ?, X)", [][]string{{"b"}, {"d"}}},
		{"p(X, Y, X)", [][]string{nil}},
		{"p(?, ?, X)", [][]string{{"a", "b"}, {"c", "d"}}},
		{"p(?, b, ?)", [][]string{{"a", "b"}, {"b", "a"}}},
	}
	for _, c := range cases {
		qsq, err := db.Prepare(c.tmpl, Options{Strategy: QSQNet})
		if err != nil {
			t.Fatalf("%s: %v", c.tmpl, err)
		}
		semi, err := db.Prepare(c.tmpl, Options{Strategy: Seminaive})
		if err != nil {
			t.Fatalf("%s: %v", c.tmpl, err)
		}
		for _, args := range c.args {
			got, err := qsq.Run(args...)
			if err != nil {
				t.Fatalf("%s %v: %v", c.tmpl, args, err)
			}
			want, err := semi.Run(args...)
			if err != nil {
				t.Fatalf("%s %v: %v", c.tmpl, args, err)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Errorf("%s %v: qsqnet %v, seminaive %v", c.tmpl, args, got.Rows, want.Rows)
			}
		}
	}
}
