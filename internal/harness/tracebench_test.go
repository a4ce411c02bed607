package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/jbb"
)

// BenchmarkTraceThroughput measures aggregate marking throughput —
// marked words per second of collection wall time — on the pseudojbb
// shape under two tracing regimes (make tracebench records it in
// results/trace_throughput.txt):
//
//   - serial: one whole-heap stop-the-world trace (the published mode);
//   - zones-rotate / zones-conc-N: the heap sharded into four zones and
//     collected by rotation — serialized (GCZones), or with N zone
//     collections simultaneously in flight (GCZonesConcurrent).
//
// The live graph is one pseudojbb company whose transaction churn is
// spread across the zones in the sharded variants (the mutator thread is
// rebound round-robin during the build), so district/order structure
// crosses zones and every rotation resolves real remembered-set entries.
// The build is outside the timed region; each iteration re-collects the
// same quiescent live graph, so ns/op is pure collection cost and the
// Mwords/s metric is the ROADMAP item 4 baseline: marked volume over
// collection wall time.
//
// Single-core caveat: with GOMAXPROCS=1 the concurrent-zone variants
// time-share one CPU, so Mwords/s records their coordination overhead
// relative to serial, not scaling; the scaling curves need real cores.
func BenchmarkTraceThroughput(b *testing.B) {
	const zones = 4
	variants := []struct {
		name  string
		zoned bool
		conc  int // GCZonesConcurrent worker count; 0 = serialized GCZones
	}{
		{name: "serial"},
		{name: "zones-rotate", zoned: true},
		{name: "zones-conc-2", zoned: true, conc: 2},
		{name: "zones-conc-4", zoned: true, conc: 4},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			cfg := core.Config{HeapWords: 1 << 18, Mode: core.Infrastructure}
			if v.zoned {
				cfg.Zones = zones
			}
			rt := core.New(cfg)
			bench := jbb.New(rt, jbb.Config{ClearLastOrder: true, ClearOldCompany: true})
			th := rt.MainThread()
			for i := 0; i < 40; i++ {
				if v.zoned {
					th.SetZone(rt.Zone(i % zones))
				}
				bench.RunTransactions(25)
			}
			if err := rt.GC(); err != nil {
				b.Fatal(err)
			}
			before := rt.Stats().GC.MarkedWords

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				switch {
				case v.conc > 0:
					err = rt.GCZonesConcurrent(v.conc)
				case v.zoned:
					err = rt.GCZones()
				default:
					err = rt.GC()
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()

			marked := rt.Stats().GC.MarkedWords - before
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(marked)/secs/1e6, "Mwords/s")
				b.ReportMetric(float64(marked)/float64(b.N), "words/gc")
			}
		})
	}
}
