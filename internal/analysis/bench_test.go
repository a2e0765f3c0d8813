package analysis

import "testing"

// BenchmarkAnalyzeSystem measures the Instrumenter end to end on each
// target system (the Table 7 totals, as a Go benchmark).
func BenchmarkAnalyzeSystem(b *testing.B) {
	for _, dir := range []string{
		"internal/sys/zk", "internal/sys/dfs", "internal/sys/tablestore",
		"internal/sys/mq", "internal/sys/kvstore",
	} {
		b.Run(dir[len("internal/sys/"):], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := AnalyzePackages([]string{dir}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSiteDistances measures the L_{i,k} table computation over the
// largest graph.
func BenchmarkSiteDistances(b *testing.B) {
	res, err := AnalyzePackages([]string{"internal/sys/dfs"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Graph.SiteDistances()
	}
}

// BenchmarkMatcher measures observable-to-template matching.
func BenchmarkMatcher(b *testing.B) {
	res, err := AnalyzePackages([]string{"internal/sys/tablestore"})
	if err != nil {
		b.Fatal(err)
	}
	var templates []string
	for _, l := range res.Logs {
		templates = append(templates, l.Template)
	}
	m := NewMatcher(templates)
	msg := "WAL stream broken on rs#, # unacked appends pending"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(msg)
	}
}
