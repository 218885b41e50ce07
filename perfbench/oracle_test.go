package main

import (
	"strings"
	"testing"
)

var testRows = []row{
	{[]string{"a", "x"}, 3},
	{[]string{"a", "y"}, 5},
	{[]string{"b", "x"}, 7},
	{[]string{"a", "x"}, 1},
}

// testCube is the sum cube of testRows, one CSV row per group.
const testCube = `d1,d2,sum
*,*,16
a,*,9
b,*,7
*,x,11
*,y,5
a,x,4
a,y,5
b,x,7
`

func TestOracleCube(t *testing.T) {
	want := oracleCube(testRows, 2, "sum", 0)
	if err := checkCubeCSV(strings.NewReader(testCube), []string{"d1", "d2", "sum"}, want); err != nil {
		t.Fatalf("correct cube rejected: %v", err)
	}
	counts := oracleCube(testRows, 2, "count", 2)
	if len(counts) != 4 || counts[groupKey([]string{"a", "x"})] != 2 || counts[groupKey([]string{"*", "*"})] != 4 {
		t.Fatalf("iceberg count cube = %v", counts)
	}
}

func TestCheckCubeCSV(t *testing.T) {
	header := []string{"d1", "d2", "sum"}
	want := oracleCube(testRows, 2, "sum", 0)
	lines := strings.Split(strings.TrimSuffix(testCube, "\n"), "\n")
	join := func(ls []string) string { return strings.Join(ls, "\n") + "\n" }
	reordered := append([]string{lines[0]}, lines[1:]...)
	for i, j := 1, len(reordered)-1; i < j; i, j = i+1, j-1 {
		reordered[i], reordered[j] = reordered[j], reordered[i]
	}
	if err := checkCubeCSV(strings.NewReader(join(reordered)), header, want); err != nil {
		t.Fatalf("reordered cube rejected: %v", err)
	}

	bad := map[string][]string{
		"flipped value":    append(append([]string{}, lines[:3]...), append([]string{"b,*,8"}, lines[4:]...)...),
		"missing group":    append(append([]string{}, lines[:3]...), lines[4:]...),
		"extra group":      append(append([]string{}, lines...), "c,*,1"),
		"duplicated group": append(append([]string{}, lines...), lines[5]),
		"wrong header":     append([]string{"d1,d2,count"}, lines[1:]...),
	}
	for name, ls := range bad {
		if err := checkCubeCSV(strings.NewReader(join(ls)), header, want); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestVersions(t *testing.T) {
	batch := []row{{[]string{"c", "y"}, 2}, {[]string{"a", "x"}, 10}}
	o := newVersions(testRows, [][]row{batch}, 2, "sum")
	ax := groupKey([]string{"a", "x"})
	if v, ok := o.value(ax, 0); !ok || v != 4 {
		t.Fatalf("a,x at v0 = %v %v", v, ok)
	}
	if v, ok := o.value(ax, 1); !ok || v != 14 {
		t.Fatalf("a,x at v1 = %v %v", v, ok)
	}
	cy := []string{"c", "y"}
	if err := o.check(query{Op: "point", Group: cy}, answer{}, 0); err != nil {
		t.Fatalf("absent group at v0: %v", err)
	}
	if err := o.check(query{Op: "point", Group: cy}, answer{}, 1); err == nil {
		t.Fatal("missing group at v1 accepted")
	}

	rollup := answer{Groups: []answerGroup{{[]string{"a", "x"}, 14}, {[]string{"a", "*"}, 19}, {[]string{"*", "*"}, 28}}}
	if err := o.check(query{Op: "rollup", Group: []string{"a", "x"}}, rollup, 1); err != nil {
		t.Fatalf("rollup rejected: %v", err)
	}
	if err := o.check(query{Op: "rollup", Group: []string{"a", "x"}}, rollup, 0); err == nil {
		t.Fatal("rollup of v1 accepted at v0")
	}

	slice := answer{Groups: []answerGroup{{[]string{"a", "y"}, 5}, {[]string{"a", "x"}, 4}}}
	if err := o.check(query{Op: "slice", Group: []string{"a", "?"}}, slice, 0); err != nil {
		t.Fatalf("slice rejected: %v", err)
	}
	short := answer{Groups: slice.Groups[:1]}
	if err := o.check(query{Op: "slice", Group: []string{"a", "?"}}, short, 0); err == nil {
		t.Fatal("slice missing a group accepted")
	}

	top := query{Op: "topk", Group: []string{"?", "*"}, K: 2}
	good := answer{Groups: []answerGroup{{[]string{"a", "*"}, 19}, {[]string{"b", "*"}, 7}}}
	if err := o.check(top, good, 1); err != nil {
		t.Fatalf("topk rejected: %v", err)
	}
	wrongOrder := answer{Groups: []answerGroup{good.Groups[1], good.Groups[0]}}
	if err := o.check(top, wrongOrder, 1); err == nil {
		t.Fatal("topk out of order accepted")
	}
	skipped := answer{Groups: []answerGroup{{[]string{"a", "*"}, 19}, {[]string{"c", "*"}, 2}}}
	if err := o.check(top, skipped, 1); err == nil {
		t.Fatal("topk skipping a larger group accepted")
	}
}
