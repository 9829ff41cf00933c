package main

import (
	"fmt"
	"sort"
	"strings"

	"tdb/temporal"
)

// reply is one statement's answer as a client sees it, whether it came
// over the wire or from the in-process pass.
type reply struct {
	table string // rendered resultset; empty for non-retrieves
	rows  int
	msg   string
	err   string
}

// tableRows parses a rendered resultset (the paper's boxed layout) into
// its data rows, one slice of cells per row.
func tableRows(table string) [][]string {
	var rows [][]string
	header := true
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		if header {
			header = false
			continue
		}
		var cells []string
		for _, c := range strings.Split(line, "|") {
			if c = strings.TrimSpace(c); c != "" {
				cells = append(cells, c)
			}
		}
		rows = append(rows, cells)
	}
	return rows
}

// checker holds one connection's expected answers. Connections own
// disjoint keys, so each checker's model is exact for its own stream.
type checker struct {
	h       *history
	pieces  map[int][]piece   // current belief of keys this connection replaced
	windows map[string]string // first answer of each window query
	acked   []int             // append keys acknowledged, in order
}

func newChecker(h *history) *checker {
	return &checker{h: h, pieces: map[int][]piece{}, windows: map[string]string{}}
}

// current is the model's belief about key k.
func (c *checker) current(k int) []piece {
	if ps, ok := c.pieces[k]; ok {
		return ps
	}
	r := c.h.rows[k]
	return []piece{{r.v, r.from, r.to}}
}

// check compares a reply with the expected answer and, for acknowledged
// writes, advances the model. A non-nil error is a wrong answer.
func (c *checker) check(o op, r reply) error {
	switch o.kind {
	case kindAsOf:
		// The row may have been superseded since the instant read at, so
		// its transaction end is not checked.
		pr := c.h.rows[o.key]
		return samePieces(o, r, []piece{{pr.v, pr.from, pr.to}}, false)
	case kindCurrent:
		return samePieces(o, r, c.current(o.key), true)
	case kindReplace:
		if !strings.HasSuffix(r.msg, "replaced") {
			return fmt.Errorf("%s: reply %q, want a replace acknowledgement", o.src, r.msg)
		}
		c.pieces[o.key] = replacePieces(c.current(o.key), o.v, o.from, o.to)
	case kindOverlap:
		got, want := len(tableRows(r.table)), c.h.overlapCount(o.shard, o.day)
		if got != want || r.rows != want {
			return fmt.Errorf("%s: %d rows (header says %d), want %d", o.src, got, r.rows, want)
		}
	case kindWindow:
		if len(tableRows(r.table)) == 0 {
			return fmt.Errorf("%s: no windows", o.src)
		}
		// gen does not change while windows are read, so every answer
		// must equal the first one.
		if first, ok := c.windows[o.src]; !ok {
			c.windows[o.src] = r.table
		} else if first != r.table {
			return fmt.Errorf("%s: answer changed between repeats", o.src)
		}
	case kindAppend:
		if !strings.HasPrefix(r.msg, "appended to") {
			return fmt.Errorf("%s: reply %q, want an append acknowledgement", o.src, r.msg)
		}
		c.acked = append(c.acked, o.key)
	}
	return nil
}

// samePieces checks a key read: exactly the expected (v, valid from,
// valid to) rows and, if current, each still current in transaction time.
func samePieces(o op, r reply, want []piece, current bool) error {
	var got, exp []string
	for _, cells := range tableRows(r.table) {
		if len(cells) != 5 || (current && cells[4] != temporal.Forever.String()) {
			return fmt.Errorf("%s: malformed row %q", o.src, cells)
		}
		got = append(got, strings.Join(cells[:3], " "))
	}
	for _, p := range want {
		exp = append(exp, fmt.Sprintf("%d %s %s", p.v, p.from, p.to))
	}
	sort.Strings(got)
	sort.Strings(exp)
	if strings.Join(got, "; ") != strings.Join(exp, "; ") {
		return fmt.Errorf("%s: got [%s], want [%s]", o.src, strings.Join(got, "; "), strings.Join(exp, "; "))
	}
	return nil
}

// sameKeys checks that the ids found in an append relation are exactly
// the acknowledged appends.
func sameKeys(rel string, found []string, acked []int) error {
	want := make(map[string]bool, len(acked))
	for _, k := range acked {
		want[fmt.Sprintf("a%07d", k)] = true
	}
	seen := make(map[string]bool, len(found))
	for _, id := range found {
		if !want[id] || seen[id] {
			return fmt.Errorf("%s: unexpected or duplicate row %q", rel, id)
		}
		seen[id] = true
	}
	if len(seen) != len(want) {
		return fmt.Errorf("%s: %d of %d acknowledged appends present", rel, len(seen), len(want))
	}
	return nil
}
