package simnet

// Partitions returns how many directed pair entries are currently cut, so
// tests can assert heals fully retire their entries.
func (n *Net) Partitions() int { return len(n.partitioned) }
