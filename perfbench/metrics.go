package main

import "strings"

// metric is one reported figure as BENCHMARK.json declares it. bound is
// the share of the parent's median by which an end-to-end metric may
// worsen before a change counts as a regression; per-layer metrics have
// none.
type metric struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the figures a user of the system sees, reported by the
// untraced run of every workload. The held-back serving workload also
// measures slo_rps, its SLO capacity, which its report prints; it is
// declared again with that workload.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"req_p50_ms", "ms", "lower", 0.25},
	{"req_tail_ms", "ms", "lower", 0.25},
	{"gc_pause_p50_us", "us", "lower", 0.25},
	{"gc_pause_tail_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// overheadPrefix names the traced-minus-untraced difference of an
// end-to-end metric in the traced run.
const overheadPrefix = "overhead."

func isOverhead(name string) bool { return strings.HasPrefix(name, overheadPrefix) }

// perLayer are the traced run's figures, named layer.metric after the
// repository's modules, then one overhead.<metric> per end-to-end metric.
// The layers only the held-back serving workload exercises (allocation
// buffers, the concurrent pacer, Server.Do, the open-loop generator's
// lateness) read 0 on every declared workload, so they are left out here;
// layerMetrics still derives them, and a serving run's report prints them.
var perLayer = append([]metric{
	{"trace.ownership_us_per_gc", "us", "lower", 0},
	{"trace.mark_us_per_gc", "us", "lower", 0},
	{"trace.mwords_per_s", "Mwords/s", "higher", 0},
	{"trace.marked_words_per_gc", "words", "lower", 0},
	{"trace.ownees_checked_per_gc", "count", "lower", 0},
	{"trace.refs_scanned_per_gc", "count", "lower", 0},
	{"gc.sweep_pause_p50_us", "us", "lower", 0},
	{"gc.collections_per_s", "1/s", "lower", 0},
	{"gc.time_share", "ratio", "lower", 0},
	{"gc.freed_words_per_gc", "words", "higher", 0},
	{"assertions.violations_per_gc", "count", "lower", 0},
	{"assertions.registrations_per_op", "count", "lower", 0},
	{"assertions.sidetab_bytes", "bytes", "lower", 0},
	{"host.alloc_bytes_per_op", "bytes", "lower", 0},
	{"vmheap.allocs_per_op", "count", "lower", 0},
	{"minidb.find_us", "us", "lower", 0},
	{"minidb.scan_us", "us", "lower", 0},
	{"minidb.sort_us", "us", "lower", 0},
	{"minidb.add_us", "us", "lower", 0},
	{"minidb.remove_us", "us", "lower", 0},
	{"jbb.neworder_us", "us", "lower", 0},
	{"jbb.payment_us", "us", "lower", 0},
	{"jbb.delivery_us", "us", "lower", 0},
}, overheadMetrics()...)

func overheadMetrics() []metric {
	var out []metric
	for _, m := range endToEnd {
		out = append(out, metric{overheadPrefix + m.name, m.unit, m.better, 0})
	}
	return out
}
