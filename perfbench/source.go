package main

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"hirata"
	"hirata/internal/asm"
)

// programSource renders an assembled program back to assembly source: its
// .lint directives, its data image with every data label and word type,
// and the label-bearing disassembly of its text. Assembling the result
// gives the same program (sameProgram checks it).
func programSource(p *hirata.Program) string {
	var b strings.Builder
	if p.LintSlots > 0 {
		fmt.Fprintf(&b, "\t.lint slots %d\n", p.LintSlots)
	}
	if len(p.LintAllow) > 0 {
		fmt.Fprintf(&b, "\t.lint allow %s\n", strings.Join(p.LintAllow, " "))
	}

	vals := make(map[int64]uint64, len(p.Data))
	addrs := make(map[int64]bool)
	for _, w := range p.Data {
		vals[w.Addr] = w.Val
		addrs[w.Addr] = true
	}
	for a := range p.WordTypes {
		addrs[a] = true
	}
	labels := make(map[int64][]string)
	for _, s := range p.DataSyms {
		labels[s.Addr] = append(labels[s.Addr], s.Name)
		addrs[s.Addr] = true
	}
	order := make([]int64, 0, len(addrs))
	for a := range addrs {
		order = append(order, a)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	b.WriteString("\t.data\n")
	cur := int64(-1)
	for _, a := range order {
		if a != cur {
			fmt.Fprintf(&b, "\t.org %d\n", a)
			cur = a
		}
		for _, l := range labels[a] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		switch p.WordTypes[a] {
		case asm.WordFloat:
			fmt.Fprintf(&b, "\t.float %s\n", strconv.FormatFloat(math.Float64frombits(vals[a]), 'g', -1, 64))
			cur++
		case asm.WordInt:
			fmt.Fprintf(&b, "\t.word %d\n", int64(vals[a]))
			cur++
		}
	}
	if cur < 0 {
		cur = 0
	}
	if p.DataEnd > cur {
		fmt.Fprintf(&b, "\t.org %d\n\t.space %d\n", cur, p.DataEnd-cur)
	}
	b.WriteString("\t.text\n")
	b.WriteString(hirata.Disassemble(p.Text))
	return b.String()
}

// sameProgram reports how q differs from p in anything the toolchain reads:
// text, data image, data labels, word types, data end and .lint settings.
// It returns "" when they agree.
func sameProgram(p, q *hirata.Program) string {
	switch {
	case !reflect.DeepEqual(p.Text, q.Text):
		return "text differs"
	case !reflect.DeepEqual(nonZero(p.Data), nonZero(q.Data)):
		return "data image differs"
	case !reflect.DeepEqual(p.DataSyms, q.DataSyms):
		return "data labels differ"
	case !reflect.DeepEqual(p.WordTypes, q.WordTypes):
		return "word types differ"
	case p.DataEnd != q.DataEnd:
		return fmt.Sprintf("data end %d, want %d", q.DataEnd, p.DataEnd)
	case !reflect.DeepEqual(p.LintAllow, q.LintAllow) || p.LintSlots != q.LintSlots:
		return ".lint settings differ"
	}
	return ""
}

// nonZero drops zero words: an image that omits a zero word and one that
// lists it initialise memory alike.
func nonZero(ws []asm.DataWord) map[int64]uint64 {
	out := make(map[int64]uint64, len(ws))
	for _, w := range ws {
		if w.Val != 0 {
			out[w.Addr] = w.Val
		}
	}
	return out
}
