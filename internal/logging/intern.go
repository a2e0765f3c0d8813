package logging

import "sync"

// interner canonicalizes sanitized messages. The explorer sees the same
// few hundred distinct sanitized forms thousands of times per
// reproduction; interning them means a form allocates only the first time
// it is seen, and the per-thread Myers diff compares small integer ids
// instead of strings. The table is process-global (guarded for parallel
// evaluation) and lives here, below logdiff, because a record is keyed
// where it is emitted. It is never freed: see InternedForms.
var interner = struct {
	sync.RWMutex
	ids  map[string]int32
	strs []string
}{ids: make(map[string]int32)}

// internBytes returns the id for a sanitized form held in buf, adding it
// to the table on first sight. The map lookup on the hit path performs no
// conversion allocation (m[string(buf)] pattern).
func internBytes(buf []byte) int32 {
	interner.RLock()
	id, ok := interner.ids[string(buf)]
	interner.RUnlock()
	if ok {
		return id
	}
	interner.Lock()
	defer interner.Unlock()
	if id, ok = interner.ids[string(buf)]; ok {
		return id
	}
	s := string(buf)
	id = int32(len(interner.strs))
	interner.strs = append(interner.strs, s)
	interner.ids[s] = id
	return id
}

// Canonical returns the sanitized form an interned id stands for.
func Canonical(id int32) string {
	interner.RLock()
	s := interner.strs[id]
	interner.RUnlock()
	return s
}

// InternedForms reports how many distinct sanitized forms the process has
// interned. Sanitizing strips decimal digits only, so a template with a %x
// operand interns one form per distinct a–f spelling of its values: the
// table is bounded by values, not by templates, and a long-lived process
// should watch this number.
func InternedForms() int {
	interner.RLock()
	defer interner.RUnlock()
	return len(interner.strs)
}

// sanitizeAppend writes the sanitized form of msg into buf: every maximal
// run of decimal digits becomes one '#'.
func sanitizeAppend(buf []byte, msg string) []byte {
	inDigits := false
	for i := 0; i < len(msg); i++ {
		c := msg[i]
		if c >= '0' && c <= '9' {
			if !inDigits {
				buf = append(buf, '#')
				inDigits = true
			}
			continue
		}
		inDigits = false
		buf = append(buf, c)
	}
	return buf
}

// SanitizeID sanitizes a log message and returns its interned id. Counters,
// ports, sizes, offsets and other volatile decimal fields drop out while
// the message keeps its identity — the role the paper's timestamp and field
// sanitization plays.
func SanitizeID(msg string) int32 {
	var stack [192]byte
	return internBytes(sanitizeAppend(stack[:0], msg))
}
