package failures

// BySystem returns the scenarios targeting one system.
func BySystem(system string) []*Scenario {
	var out []*Scenario
	for _, s := range registry {
		if s.System == system {
			out = append(out, s)
		}
	}
	return out
}
