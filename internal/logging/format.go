package logging

import (
	"fmt"
	"strconv"
	"strings"
)

// appendf appends fmt.Sprintf(format, args...) to buf. It formats the
// operands the targets log most itself: an operand of exactly type string
// under a bare %s, %v or %q, or of exactly type int, int64, int32 or
// uint64 under a bare %d, %v or %x. Any other verb, flag, width, operand
// type or operand count renders the whole message with fmt.Appendf, so
// the result is always fmt's.
func appendf(buf []byte, format string, args []interface{}) []byte {
	start, next := len(buf), 0
	for rest := format; rest != ""; {
		i := strings.IndexByte(rest, '%')
		if i < 0 {
			buf = append(buf, rest...)
			break
		}
		buf = append(buf, rest[:i]...)
		if i+1 == len(rest) {
			return fmt.Appendf(buf[:start], format, args...)
		}
		verb := rest[i+1]
		rest = rest[i+2:]
		if verb == '%' {
			buf = append(buf, '%')
			continue
		}
		var ok bool
		if next < len(args) {
			buf, ok = appendOperand(buf, verb, args[next])
		}
		if !ok {
			return fmt.Appendf(buf[:start], format, args...)
		}
		next++
	}
	if next != len(args) {
		return fmt.Appendf(buf[:start], format, args...)
	}
	return buf
}

// appendOperand appends one operand the way fmt renders it under verb, or
// reports false if appendf leaves that operand and verb to fmt.
func appendOperand(buf []byte, verb byte, arg interface{}) ([]byte, bool) {
	switch v := arg.(type) {
	case string:
		switch verb {
		case 's', 'v':
			return append(buf, v...), true
		case 'q':
			return strconv.AppendQuote(buf, v), true
		}
	case int:
		return appendInt(buf, verb, int64(v))
	case int64:
		return appendInt(buf, verb, v)
	case int32:
		return appendInt(buf, verb, int64(v))
	case uint64:
		switch verb {
		case 'd', 'v':
			return strconv.AppendUint(buf, v, 10), true
		case 'x':
			return strconv.AppendUint(buf, v, 16), true
		}
	}
	return buf, false
}

func appendInt(buf []byte, verb byte, v int64) ([]byte, bool) {
	switch verb {
	case 'd', 'v':
		return strconv.AppendInt(buf, v, 10), true
	case 'x':
		return strconv.AppendInt(buf, v, 16), true
	}
	return buf, false
}
