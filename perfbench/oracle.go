package main

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// The oracle computes cubes apart from the program under test: a plain
// group-by over all 2^d projections of the input rows, keyed by the
// full-width display form of each group ("*" in aggregated-away
// dimensions). It shares no code with the program.

// row is one input row.
type row struct {
	dims    []string
	measure int64
}

// cell is one group's aggregate state.
type cell struct {
	sum   int64
	count int64
}

// value is the group's aggregate under agg ("sum" or "count").
func (c cell) value(agg string) float64 {
	if agg == "count" {
		return float64(c.count)
	}
	return float64(c.sum)
}

// groupKey joins a full-width group into a map key.
func groupKey(group []string) string { return strings.Join(group, "\x1f") }

// splitKey is groupKey's inverse.
func splitKey(key string) []string { return strings.Split(key, "\x1f") }

// scanCSV reads a header-first CSV whose last column is an integer measure,
// the way the programs read their input: start gets the header (a copy),
// then add gets every row. add's dims slice is reused for the next row.
func scanCSV(path string, start func(header []string), add func(dims []string, measure int64)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cr := csv.NewReader(f)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("%s: header: %w", path, err)
	}
	d := len(header) - 1
	start(append([]string(nil), header...))
	dims := make([]string, d)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		m, err := strconv.ParseInt(rec[d], 10, 64)
		if err != nil {
			return fmt.Errorf("%s: measure %q: %w", path, rec[d], err)
		}
		copy(dims, rec[:d])
		add(dims, m)
	}
}

// readRows reads a CSV into rows for the oracle.
func readRows(path string) (header []string, rows []row, err error) {
	err = scanCSV(path, func(h []string) { header = h }, func(dims []string, m int64) {
		rows = append(rows, row{dims: append([]string(nil), dims...), measure: m})
	})
	return header, rows, err
}

// cubeCells aggregates rows into every group of every projection.
func cubeCells(rows []row, d int) map[string]cell {
	out := make(map[string]cell, len(rows)*4)
	group := make([]string, d)
	for mask := 0; mask < 1<<d; mask++ {
		for _, r := range rows {
			for i := 0; i < d; i++ {
				if mask&(1<<i) != 0 {
					group[i] = r.dims[i]
				} else {
					group[i] = "*"
				}
			}
			k := groupKey(group)
			c := out[k]
			c.sum += r.measure
			c.count++
			out[k] = c
		}
	}
	return out
}

// oracleCube is the expected cube: every group with at least minSup rows
// (every group when minSup < 2) and its aggregate.
func oracleCube(rows []row, d int, agg string, minSup int) map[string]float64 {
	out := make(map[string]float64)
	for k, c := range cubeCells(rows, d) {
		if c.count >= int64(minSup) {
			out[k] = c.value(agg)
		}
	}
	return out
}

// checkCubeCSV compares a cube CSV (header, then one row per group, in any
// order) with the expected cube. It reports the first difference: a wrong
// header, a wrong value, a group missing, an extra group or a group listed
// twice.
func checkCubeCSV(r io.Reader, header []string, want map[string]float64) error {
	cr := csv.NewReader(r)
	got, err := cr.Read()
	if err != nil {
		return fmt.Errorf("reading header: %w", err)
	}
	if groupKey(got) != groupKey(header) {
		return fmt.Errorf("header %q, want %q", got, header)
	}
	d := len(header) - 1
	seen := make(map[string]bool, len(want))
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		k := groupKey(rec[:d])
		v, err := strconv.ParseFloat(rec[d], 64)
		if err != nil {
			return fmt.Errorf("line %d: value %q: %w", line, rec[d], err)
		}
		w, ok := want[k]
		switch {
		case !ok:
			return fmt.Errorf("line %d: extra group %q", line, rec[:d])
		case seen[k]:
			return fmt.Errorf("line %d: group %q listed twice", line, rec[:d])
		case v != w:
			return fmt.Errorf("line %d: group %q has %v, want %v", line, rec[:d], v, w)
		}
		seen[k] = true
	}
	if len(seen) != len(want) {
		missing := make([]string, 0, 1)
		for k := range want {
			if !seen[k] {
				missing = append(missing, k)
			}
		}
		sort.Strings(missing)
		return fmt.Errorf("%d groups missing, first %q", len(missing), splitKey(missing[0]))
	}
	return nil
}

// versions is the oracle of a served cube that grows by appended batches:
// version 0 is the base rows' cube, version v adds batches 1..v. Sum and
// count are additive, so version v's value is the base cell plus the
// batches' cells.
type versions struct {
	agg    string
	base   map[string]cell
	deltas []map[string]cell
	// byMask lists every group key that exists in some version, per
	// cuboid mask (bit i set: dimension i grouped on).
	byMask map[int][]string
	// sorted caches each (mask, version)'s values in descending order,
	// firstIdx each cuboid's keys by the value of its lowest grouped
	// dimension.
	sorted   map[[2]int][]float64
	firstIdx map[int]map[string][]string
}

func newVersions(base []row, batches [][]row, d int, agg string) *versions {
	o := &versions{agg: agg, base: cubeCells(base, d), byMask: map[int][]string{}, sorted: map[[2]int][]float64{}, firstIdx: map[int]map[string][]string{}}
	all := make(map[string]bool, len(o.base))
	for k := range o.base {
		all[k] = true
	}
	for _, b := range batches {
		cells := cubeCells(b, d)
		o.deltas = append(o.deltas, cells)
		for k := range cells {
			all[k] = true
		}
	}
	for k := range all {
		m := maskOf(splitKey(k))
		o.byMask[m] = append(o.byMask[m], k)
	}
	for _, keys := range o.byMask {
		sort.Strings(keys)
	}
	return o
}

// maskOf is the cuboid of a full-width group.
func maskOf(group []string) int {
	m := 0
	for i, g := range group {
		if g != "*" {
			m |= 1 << i
		}
	}
	return m
}

// value returns a group's aggregate at version v, and whether it exists.
func (o *versions) value(key string, v int) (float64, bool) {
	c, ok := o.base[key]
	for i := 0; i < v && i < len(o.deltas); i++ {
		if dc, dok := o.deltas[i][key]; dok {
			c.sum += dc.sum
			c.count += dc.count
			ok = true
		}
	}
	return c.value(o.agg), ok
}

// descending returns a cuboid's values at version v, largest first.
func (o *versions) descending(mask, v int) []float64 {
	if s, ok := o.sorted[[2]int{mask, v}]; ok {
		return s
	}
	var s []float64
	for _, k := range o.byMask[mask] {
		if x, ok := o.value(k, v); ok {
			s = append(s, x)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	o.sorted[[2]int{mask, v}] = s
	return s
}

// answer is one served query's reply in display form.
type answer struct {
	Found  bool
	Value  float64
	Groups []answerGroup
}

type answerGroup struct {
	Group []string
	Value float64
}

// query is one served query in display form: op is point, slice, rollup
// or topk; group has one entry per dimension: a value, "*" or "?".
type query struct {
	Op    string
	Group []string
	K     int
}

// check reports whether ans is the correct answer to q at version v.
func (o *versions) check(q query, ans answer, v int) error {
	switch q.Op {
	case "point":
		want, ok := o.value(groupKey(q.Group), v)
		if ans.Found != ok || (ok && ans.Value != want) {
			return fmt.Errorf("point %q = (%v, %v), want (%v, %v)", q.Group, ans.Found, ans.Value, ok, want)
		}
		return nil
	case "rollup":
		return o.checkGroups(ans.Groups, o.rollup(q.Group, v), v)
	case "slice":
		return o.checkGroups(ans.Groups, o.slice(q.Group, v), v)
	case "topk":
		return o.checkTopK(q, ans.Groups, v)
	}
	return fmt.Errorf("unknown op %q", q.Op)
}

// rollup lists the chain from the group up to the apex, dropping the
// highest grouped dimension at each step, keeping groups that exist.
func (o *versions) rollup(group []string, v int) []string {
	g := append([]string(nil), group...)
	var out []string
	for {
		if _, ok := o.value(groupKey(g), v); ok {
			out = append(out, groupKey(g))
		}
		top := -1
		for i := range g {
			if g[i] != "*" {
				top = i
			}
		}
		if top < 0 {
			return out
		}
		g[top] = "*"
	}
}

// slice lists the groups of the slice's cuboid ("?" and value entries are
// grouped) whose fixed entries match.
func (o *versions) slice(group []string, v int) []string {
	mask := maskOf(group)
	candidates := o.byMask[mask]
	for i, g := range group {
		if g != "*" {
			if g != "?" {
				candidates = o.byFirst(mask, i)[g]
			}
			break
		}
	}
	var out []string
	for _, k := range candidates {
		parts := splitKey(k)
		match := true
		for i, g := range group {
			if g != "*" && g != "?" && parts[i] != g {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		if _, ok := o.value(k, v); ok {
			out = append(out, k)
		}
	}
	return out
}

// byFirst indexes a cuboid's group keys by the value of its lowest grouped
// dimension, first.
func (o *versions) byFirst(mask, first int) map[string][]string {
	if idx, ok := o.firstIdx[mask]; ok {
		return idx
	}
	idx := map[string][]string{}
	for _, k := range o.byMask[mask] {
		val := splitKey(k)[first]
		idx[val] = append(idx[val], k)
	}
	o.firstIdx[mask] = idx
	return idx
}

// checkGroups compares an answer's groups with the expected keys as sets,
// with each group's value at version v.
func (o *versions) checkGroups(got []answerGroup, want []string, v int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	wantSet := make(map[string]bool, len(want))
	for _, k := range want {
		wantSet[k] = true
	}
	for _, g := range got {
		k := groupKey(g.Group)
		if !wantSet[k] {
			return fmt.Errorf("unexpected or repeated group %q", g.Group)
		}
		delete(wantSet, k)
		if w, _ := o.value(k, v); g.Value != w {
			return fmt.Errorf("group %q = %v, want %v", g.Group, g.Value, w)
		}
	}
	return nil
}

// checkTopK accepts any correct top-k: min(k, cuboid size) distinct groups
// of the cuboid with correct values in non-increasing order, such that no
// group left out has a larger value than the smallest one returned. Ties
// at the boundary may be broken either way.
func (o *versions) checkTopK(q query, got []answerGroup, v int) error {
	mask := maskOf(q.Group)
	desc := o.descending(mask, v)
	k := q.K
	if k > len(desc) {
		k = len(desc)
	}
	if len(got) != k {
		return fmt.Errorf("topk returned %d groups, want %d", len(got), k)
	}
	seen := map[string]bool{}
	for i, g := range got {
		key := groupKey(g.Group)
		if seen[key] || maskOf(g.Group) != mask {
			return fmt.Errorf("topk group %q repeated or outside the cuboid", g.Group)
		}
		seen[key] = true
		w, ok := o.value(key, v)
		if !ok || w != g.Value {
			return fmt.Errorf("topk group %q = %v, want (%v, %v)", g.Group, g.Value, ok, w)
		}
		if i > 0 && g.Value > got[i-1].Value {
			return errors.New("topk values not in descending order")
		}
	}
	if k > 0 {
		// Every group larger than the smallest returned must be returned.
		t := got[k-1].Value
		larger := sort.Search(len(desc), func(i int) bool { return desc[i] <= t })
		returned := 0
		for _, g := range got {
			if g.Value > t {
				returned++
			}
		}
		if larger != returned {
			return fmt.Errorf("topk misses %d groups larger than %v", larger-returned, t)
		}
	}
	return nil
}
