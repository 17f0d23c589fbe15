package bench

import "testing"

// BenchmarkValidate times model.Instance.Validate on fig10's largest
// sweep point (5K workers × 8K tasks, ~340K dependency entries), which
// every sim.New and every generator run pays:
//
//	go test ./internal/bench -run '^$' -bench Validate -benchmem
func BenchmarkValidate(b *testing.B) {
	in := largestRegistryInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := in.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
