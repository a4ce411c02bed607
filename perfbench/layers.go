package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// snapshot is the program's public counters at one instant: the runtime's
// Stats, its telemetry Metrics (traced runs) and the hosting Go runtime's
// allocation counters.
type snapshot struct {
	at      time.Time
	stats   core.Snapshot
	metrics telemetry.Metrics
	host    runtime.MemStats
}

func takeSnapshot(rt *core.Runtime, traced bool) *snapshot {
	s := &snapshot{stats: rt.Stats()}
	if traced {
		s.metrics = rt.Metrics()
		runtime.ReadMemStats(&s.host)
	}
	s.at = time.Now()
	return s
}

// pausesSince returns the GC pauses recorded after b was taken.
func (s *snapshot) pausesSince(b *snapshot) []time.Duration {
	return append([]time.Duration(nil), s.stats.GC.PauseLog[len(b.stats.GC.PauseLog):]...)
}

func (s *snapshot) sweepPausesSince(b *snapshot) []time.Duration {
	return append([]time.Duration(nil), s.stats.GC.SweepPauseLog[len(b.stats.GC.SweepPauseLog):]...)
}

// phaseDelta returns the count and total time of a telemetry phase between
// two snapshots.
func phaseDelta(a, b *snapshot, name string) (n uint64, total time.Duration) {
	find := func(m telemetry.Metrics) (uint64, uint64) {
		for _, ph := range m.Phases {
			if ph.Phase == name {
				return ph.Count, ph.TotalNanos
			}
		}
		return 0, 0
	}
	n0, t0 := find(a.metrics)
	n1, t1 := find(b.metrics)
	return n1 - n0, time.Duration(t1 - t0)
}

// ratio is a/b, or 0 when there was nothing to divide by: a layer the
// workload does not exercise reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerMetrics derives every per-layer metric from the main phase of a
// traced pass: the counters before and after it, and the benchmark's own
// timing of each public call.
func layerMetrics(w *workload, main *phase, a, b *snapshot) map[string]float64 {
	m := map[string]float64{}
	ga, gb := &a.stats.GC, &b.stats.GC
	el := b.at.Sub(a.at).Seconds()
	ops := float64(main.attempted)
	coll := float64(gb.Collections - ga.Collections)
	full := float64(gb.FullCollections - ga.FullCollections)

	// trace: the mark loop and the ownership pre-phase.
	_, own := phaseDelta(a, b, "ownership")
	_, mark := phaseDelta(a, b, "mark")
	_, slices := phaseDelta(a, b, "inc_slice")
	marked := float64(gb.MarkedWords - ga.MarkedWords)
	m["trace.ownership_us_per_gc"] = ratio(us(own), full)
	m["trace.mark_us_per_gc"] = ratio(us(mark), full)
	m["trace.mwords_per_s"] = ratio(marked/1e6, (own + mark + slices).Seconds())
	m["trace.marked_words_per_gc"] = ratio(marked, coll)
	m["trace.ownees_checked_per_gc"] = ratio(float64(gb.Trace.OwneesChecked-ga.Trace.OwneesChecked), full)
	m["trace.refs_scanned_per_gc"] = ratio(float64(gb.Trace.RefsScanned-ga.Trace.RefsScanned), coll)

	// gc: collection rate, time share, sweep pauses, reclamation.
	m["gc.sweep_pause_p50_us"] = us(quantile(b.sweepPausesSince(a), 0.5))
	m["gc.collections_per_s"] = ratio(coll, el)
	m["gc.time_share"] = ratio((gb.GCTime - ga.GCTime).Seconds(), el)
	m["gc.freed_words_per_gc"] = ratio(float64(gb.FreedWords-ga.FreedWords), coll)

	// assertions: the engine and its side tables.
	sa, sb := &a.stats.Asserts, &b.stats.Asserts
	regs := (sb.DeadAsserts + sb.UnsharedAsserts + sb.OwnedByAsserts + sb.InstanceAsserts) -
		(sa.DeadAsserts + sa.UnsharedAsserts + sa.OwnedByAsserts + sa.InstanceAsserts)
	m["assertions.violations_per_gc"] = ratio(float64(sb.Violations-sa.Violations), full)
	m["assertions.registrations_per_op"] = ratio(float64(regs), ops)
	m["assertions.sidetab_bytes"] = float64(gb.SideTabChunkBytes)

	// host: the Go runtime hosting the heap.
	m["host.alloc_bytes_per_op"] = ratio(float64(b.host.TotalAlloc-a.host.TotalAlloc), ops)

	// vmheap: allocator and allocation buffers.
	ha, hb := &a.stats.Heap, &b.stats.Heap
	carved := float64(b.metrics.CarveWords - a.metrics.CarveWords)
	m["vmheap.buffer_tail_waste"] = ratio(float64(b.metrics.TailWords-a.metrics.TailWords), carved)
	m["vmheap.buffer_carves_per_s"] = ratio(float64(hb.BufferCarves-ha.BufferCarves), el)
	m["vmheap.allocs_per_op"] = ratio(float64(hb.TotalAllocs-ha.TotalAllocs), ops)

	// core: the concurrent pacer and its incremental pauses.
	pa, pb := &a.stats.Pacer, &b.stats.Pacer
	m["core.pacer_cycles_per_s"] = ratio(float64(pb.Cycles-pa.Cycles), el)
	m["core.assists_per_s"] = ratio(float64(pb.Assists-pa.Assists), el)
	m["core.forced_finishes"] = float64(pb.ForcedFinishes - pa.ForcedFinishes)
	nSlice, _ := phaseDelta(a, b, "inc_slice")
	nFinish, finish := phaseDelta(a, b, "inc_finish")
	m["core.inc_slice_us"] = ratio(us(slices), float64(nSlice))
	m["core.inc_finish_us"] = ratio(us(finish), float64(nFinish))

	// minidb, jbb: the application calls, timed by the benchmark.
	if w == serveConcurrent {
		m["minidb.do_p50_us"] = main.service.quantile(0.5) / 1e3
		m["minidb.do_tail_us"] = main.service.quantile(w.reqTail) / 1e3
		m["loadgen.late_p50_ms"] = main.late.quantile(0.5) / 1e6
		m["loadgen.late_tail_ms"] = main.late.quantile(w.reqTail) / 1e6
	}
	names := main.kinds
	callUs := func(kind int) float64 { return ratio(names[kind].ns/1e3, float64(names[kind].n)) }
	switch w {
	case dbOwned:
		m["minidb.find_us"] = callUs(dbFind)
		m["minidb.scan_us"] = callUs(dbScan)
		m["minidb.sort_us"] = callUs(dbSort)
		m["minidb.add_us"] = callUs(dbAdd)
		m["minidb.remove_us"] = callUs(dbRemove)
	case jbbLeak:
		m["jbb.neworder_us"] = callUs(jbbNewOrder)
		m["jbb.payment_us"] = callUs(jbbPayment)
		m["jbb.delivery_us"] = callUs(jbbDelivery)
	}
	// Layers a workload does not have read 0.
	for _, pm := range perLayer {
		if _, ok := m[pm.name]; !ok && !isOverhead(pm.name) {
			m[pm.name] = 0
		}
	}
	return m
}
