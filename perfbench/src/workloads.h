#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by untraced runs (every workload reports
/// every one; perfbench/METRICS.md gives each its per-workload meaning).
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"served_share", "share"},
    {"batch_qps", "1/s"},
    {"accuracy_eq1_pct", "%"},
    {"accuracy_eq4_pct", "%"},
    {"p50_us", "us"},
};

/// Per-layer metrics, reported by traced runs. Layer names are the
/// module names of src/.
inline constexpr MetricSpec kPerLayer[] = {
    {"region.cluster_s", "s"},
    {"region.graph_s", "s"},
    {"pref.learn_s", "s"},
    {"transfer.transfer_s", "s"},
    {"transfer.apply_s", "s"},
    {"setup.other_s", "s"},
    {"transfer.null_rate", "share"},
    {"region.b_edge_share", "share"},
    {"core.route_us.p50", "us"},
    {"core.route_us.p99", "us"},
    {"core.method_share.inner_popular", "share"},
    {"core.method_share.region_graph", "share"},
    {"core.method_share.preference", "share"},
    {"core.method_share.fastest_fallback", "share"},
    {"core.degraded_share", "share"},
    {"routing.settles_per_query", "count"},
    {"routing.settles_per_us", "1/us"},
    {"core.batch.dispatch_self_us", "us"},
    {"core.batch.busy_share", "share"},
    {"serve.route_us.p50", "us"},
    {"serve.route_us.p99", "us"},
    {"serve.hit_us.p50", "us"},
    {"serve.miss_self_us.p50", "us"},
    {"serve.cache.hit_rate", "share"},
    {"serve.cache.hot_share", "share"},
    {"serve.cache.evictions", "count"},
    {"serve.flight.coalesced_share", "share"},
    {"serve.memo.hits_per_miss", "count"},
    {"stream.gen_late_us.p99", "us"},
    {"stream.submit_us.p99", "us"},
    {"stream.queue_wait_us.p50", "us"},
    {"stream.queue_wait_us.p99", "us"},
    {"stream.backlog_us.p50", "us"},
    {"stream.backlog_us.p99", "us"},
    {"stream.drain_us.p50", "us"},
    {"stream.drain_us.p99", "us"},
    {"stream.batch_size.mean", "count"},
    {"stream.deadline_close_share", "share"},
    {"stream.dedup_share", "share"},
    {"stream.capacity_qps", "1/s"},
    {"overload.shed_share.interactive", "share"},
    {"overload.shed_share.bulk", "share"},
    {"overload.level_raises", "count"},
    {"world.apply_us.p50", "us"},
    {"world.apply_us.p90", "us"},
    {"world.pin_wait_us.p99", "us"},
    {"world.invalidated_per_update", "count"},
    {"world.stale_valid_share", "share"},
    {"world.repair.repaired", "count"},
    {"world.repair.full_recompute", "count"},
    {"world.repair.settles", "count"},
    {"world.repair.convergence", "share"},
    {"latency.p90_us", "us"},
    {"latency.p99_us", "us"},
    {"trace.overhead", "ratio"},
};

inline constexpr const char* kWorkloads[] = {"cold_batch", "zipf_stream"};

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 8;
  bool trace = false;
  /// Busy-thread budget (the CPUs this process may run on).
  unsigned threads = 1;
  /// Where the traced run writes its spans (TSV); empty = nowhere.
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Samples behind the value (0 when it is a count or a ratio of counts).
  uint64_t samples = 0;
};

struct RunReport {
  bool correct = true;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Every metric of the run's mode, in declaration order.
  std::vector<Metric> metrics;
  /// Workload parameters stamped next to the result.
  std::vector<std::pair<std::string, std::string>> params;
};

bool IsWorkload(const std::string& name);

/// Runs one workload: builds the dataset and inputs from the seed, sets
/// the stack up, measures, audits. A traced run measures twice, untraced
/// then traced, each on a freshly built stack.
RunReport RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
