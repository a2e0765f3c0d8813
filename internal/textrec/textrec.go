// Package textrec builds the names and records the target systems write —
// row keys, segment names, edit-log and topic-log lines — by appending with
// strconv, byte for byte what fmt's verbs print. Every trial rebuilds its
// target, so these run on every event that writes one; fmt would box each
// operand and parse its format every time.
//
// The package lives outside internal/sys on purpose: the static analyzer
// models every function a system declares as causal-graph nodes, and a
// formatting helper is no part of any system's failure behaviour.
package textrec

import "strconv"

// Padded returns prefix followed by i zero-filled to width characters,
// what fmt's %0*d prints after it: a sign counts toward the width and a
// wider number is kept whole.
func Padded(prefix string, i, width int) string {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(i), 10)
	var buf [64]byte
	b := append(buf[:0], prefix...)
	if d[0] == '-' {
		b, d, width = append(b, '-'), d[1:], width-1
	}
	for n := len(d); n < width; n++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// AppendRecord appends the log record "n|field|...|field\n", what
// fmt's "%d|%s|...|%s\n" prints.
func AppendRecord(b []byte, n int64, fields ...string) []byte {
	b = strconv.AppendInt(b, n, 10)
	for _, f := range fields {
		b = append(b, '|')
		b = append(b, f...)
	}
	return append(b, '\n')
}
