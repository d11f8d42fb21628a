package main

import (
	"math"
	"sort"
	"time"
)

// metricDef is one reported metric: its unit and, for the per-layer
// metrics, the end-to-end metric and workload it is expected to move.
type metricDef struct {
	Name  string
	Unit  string
	Moves string
}

// endToEnd are the metrics a user of catalystd sees, measured with tracing
// off against the catalystd child. Every workload reports every one; on the
// single-request workloads a visit is one request. Wall-clock latency is
// reported too, as the per-layer latency.* metrics: on a shared 2-core
// host its run-to-run spread follows the hypervisor's steal (0.4 and more
// at 10-30% steal), past any bound a regression gate can use. The round
// trips a visit makes, net_reqs_per_visit, is the latency the paper's
// mechanism removes, and it is steady.
var endToEnd = []metricDef{
	{"setup_s", "s", ""},
	{"peak_rps", "req/s", ""},
	{"peak_visits_per_s", "visits/s", ""},
	{"cpu_us_per_req", "us", ""},
	{"net_reqs_per_visit", "count", ""},
	{"rss_mb", "MB", ""},
}

// perLayer are reported by the traced run (--trace 1). "scrape" metrics
// are /debug/catalystd registry deltas around the untraced run's measured
// phases; proc and validity metrics come from that run too. A metric that
// does not apply to a workload reads 0.
var perLayer = []metricDef{
	{"server.html_self_us", "us", "cpu_us_per_req, peak_rps on nav-hot"},
	{"server.static_self_us", "us", "cpu_us_per_req on static-revalidate"},
	{"server.content_gets_per_html", "count", "cpu_us_per_req on nav-hot; 0 on static-revalidate"},
	{"server.maps_built_per_html", "count", "scrape; cpu_us_per_req on nav-hot"},
	{"server.render_hit_ratio", "ratio", "scrape; cpu_us_per_req on nav-hot"},
	{"server.not_modified_ratio", "ratio", "scrape; latency.p50_ms on static-revalidate"},
	{"server.map_bytes_per_html", "bytes", "scrape; peak_rps on nav-hot"},
	{"core.extract_page_refs_us", "us", "cpu_us_per_req on nav-hot and revisit-churn"},
	{"core.extract_css_refs_us", "us", "cpu_us_per_req on nav-hot and revisit-churn"},
	{"core.resolve_refs_us", "us", "cpu_us_per_req on nav-hot and revisit-churn"},
	{"core.encode_us", "us", "cpu_us_per_req on nav-hot and revisit-churn"},
	{"core.map_entries_per_html", "count", "cpu_us_per_req on nav-hot"},
	{"middleware.html_self_us", "us", "cpu_us_per_req, latency.visit_p50_ms on revisit-churn"},
	{"middleware.passthrough_self_us", "us", "cpu_us_per_req, latency.visit_p50_ms on revisit-churn"},
	{"middleware.inner_calls_per_html", "count", "cpu_us_per_req, latency.visit_p50_ms on revisit-churn"},
	{"middleware.render_hit_ratio", "ratio", "scrape; cpu_us_per_req on revisit-churn"},
	{"middleware.probe_hit_ratio", "ratio", "scrape; cpu_us_per_req on revisit-churn"},
	{"middleware.hot_hit_ratio", "ratio", "scrape; cpu_us_per_req on revisit-churn"},
	{"middleware.encode_reuse_ratio", "ratio", "scrape; cpu_us_per_req on revisit-churn"},
	{"middleware.render_evictions", "count", "scrape; working-set pressure on revisit-churn"},
	{"middleware.probe_evictions", "count", "scrape; working-set pressure on revisit-churn"},
	{"middleware.gate_sheds", "count", "scrape; failed and latency.p99_ms"},
	{"middleware.ladder_stale", "count", "scrape; failed and latency.p99_ms"},
	{"middleware.ladder_passthrough", "count", "scrape; failed and latency.p99_ms"},
	{"middleware.ladder_rejected", "count", "scrape; failed and latency.p99_ms"},
	{"middleware.html_p50_us", "us", "scrape; latency.p50_ms on revisit-churn"},
	{"middleware.html_p99_us", "us", "scrape; latency.p99_ms on revisit-churn"},
	{"tenant.resolve_ns", "ns", "cpu_us_per_req on revisit-churn"},
	{"tenant.self_us", "us", "cpu_us_per_req on revisit-churn"},
	{"client.get_us.network", "us", "latency.visit_p50_ms on revisit-churn"},
	{"client.get_us.revalidated", "us", "latency.visit_p50_ms on revisit-churn"},
	{"client.get_us.cache", "us", "latency.visit_p50_ms on revisit-churn"},
	{"client.self_us", "us", "latency.visit_p50_ms on revisit-churn"},
	{"client.local_ratio", "ratio", "net_reqs_per_visit on revisit-churn"},
	{"upstream.reqs_per_visit", "count", "latency.visit_p50_ms on revisit-churn"},
	{"upstream.cpu_us_per_visit", "us", "latency.visit_p50_ms on revisit-churn"},
	{"proc.ctxsw_per_req", "count", "latency.p99_ms"},
	{"proc.threads", "count", "latency.p99_ms"},
	{"latency.p50_ms", "ms", "open-loop request latency (revisit-churn: requests that reach the edge)"},
	{"latency.p99_ms", "ms", "as latency.p50_ms, 99th percentile"},
	{"latency.visit_p50_ms", "ms", "open-loop visit latency, scheduled start to last subresource (a request elsewhere)"},
	{"latency.visit_p99_ms", "ms", "as latency.visit_p50_ms, 99th percentile"},
	{"gen.lag_p99_ms", "ms", "validity: how late the open-loop generator sent"},
	{"conn.dials", "count", "validity: must not exceed nproc"},
	{"host.steal_frac", "ratio", "validity: CPU stolen by the host"},
	{"churn.changed_visit_share", "ratio", "validity: revisits that saw a changed subresource"},
	{"trace.rps_on", "req/s", "traced stack throughput, wrappers on"},
	{"trace.rps_off", "req/s", "traced stack throughput, wrappers off"},
	{"trace.overhead_frac", "ratio", "1 - rps_on/rps_off"},
}

// diagnostics are the validity metrics; every result stores them.
var diagnostics = []string{"gen.lag_p99_ms", "conn.dials", "host.steal_frac", "churn.changed_visit_share"}

// quantile returns the q-quantile (nearest rank) of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
