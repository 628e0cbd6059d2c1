package lab

import "testing"

var benchLab *Lab

// BenchmarkLabNew measures one campaign-style lab build with warm
// artifacts: the fixed per-run cost every campaign run pays before its
// first packet.
func BenchmarkLabNew(b *testing.B) {
	sc, ok := ScenarioByName("keyword-rst")
	if !ok {
		b.Fatal("no keyword-rst scenario")
	}
	art, err := NewArtifacts(sc.Config(0))
	if err != nil {
		b.Fatal(err)
	}
	cfg := sc.Config(1)
	cfg.Artifacts = art
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchLab, err = New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
