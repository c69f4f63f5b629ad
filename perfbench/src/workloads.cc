#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/parallel.h"
#include "common/rng.h"
#include "inputs.h"
#include "pref/similarity.h"
#include "stack.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace {

using l2r::BatchQuery;
using l2r::Result;
using l2r::RouteResult;

// Setups per untraced run; setup_s is their median.
constexpr int kSetups = 3;

// cold_batch: a closed loop over an all-distinct pool larger than the
// route cache, in fixed-size RouteAll batches. A batch ends when its
// slowest thread does, so a host stall of one thread idles the others
// until the batch is done; 256 queries (~10 ms on four threads) keep
// that idle tail a small share of each batch, where 64 cost up to 14% of
// a run's throughput in stall-heavy spells.
constexpr size_t kColdTrajectories = 40000;
constexpr size_t kColdBatch = 256;
constexpr size_t kColdWarmup = 1024;
constexpr size_t kColdAuditSample = 512;

// zipf_stream: open-loop Poisson arrivals. 90% are Zipf(1.0) draws over
// a hot pool that fits the cache; 10% are keys the cache has not seen
// (the cold pool, in order), so the miss rate stays put as the cache
// warms and the capacity ladder measures one traffic mix at every rate.
// About 80% of requests hit (first draws of hot keys miss too).
constexpr size_t kZipfTrajectories = 40000;
constexpr size_t kHotKeys = 3000;
constexpr double kColdShare = 0.1;
constexpr double kWarmupSeconds = 1.0;
constexpr double kWarmupQps = 4000;
// The reference rate keeps the single drain thread lightly loaded, so a
// request's latency is its own batch deadline and drain, not a queue
// behind slower drains. At 4000 QPS that queue made the p50 read 980-1710
// us as the host's speed changed; at 1000 QPS twelve runs, some in a slow
// spell, read 1085-1160 us.
constexpr double kRefQps = 1000;
constexpr double kBulkShare = 0.3;
// p99 latency limit of the capacity ladder. Below saturation the windowed
// p99 of this stack (one drain thread, 1 ms batch deadline, heavy-tailed
// miss costs) ranges over 2-5 ms from step to step; past it the overload
// controller sheds and the p99 is unbounded. 10 ms separates the two.
constexpr int64_t kLimitUs = 10000;
// Each ladder step runs kStepSeconds; its p99 is the median of the p99s
// of its kStepWindowUs windows.
constexpr double kStepSeconds = 0.5;
constexpr int64_t kStepWindowUs = 125'000;
constexpr double kLadderQps[] = {16000, 24000, 36000, 54000,
                                 81000, 122000, 182000, 273000};
constexpr int kBisections = 3;
// The reference phase takes the whole measured time. Its p90 and p99 are
// medians over two-second windows of each window's p90 / p99: ~2000
// requests each, twice the ten-beyond minimum for the p99, so no window
// is dropped for want of samples.
constexpr int64_t kRefWindowUs = 2'000'000;
// The capacity ladder runs for at most this long after the reference
// phase, in the traced pass only. Its result and the tail percentiles are
// layer metrics: a slow spell of the shared host (minutes long) makes the
// misses' drains slower and the generator late, which moved the p90 2-3x
// and the p99 3-6x, so none of them can hold an end-to-end bound; the p50
// moves with the host's speed only.
constexpr double kLadderSeconds = 8;
// Update schedules applied after the measured phases with no traffic:
// their Apply times are world.apply_us.p50 / .p90. On zipf_stream,
// after the warm-up, kRepairUpdates other batches land on the live stream
// and are repaired in its idle drain, then kStaleAuditKeys seeded keys are
// served and audited for staleness.
constexpr size_t kQuiescentUpdates = 120;
constexpr int kUpdatePasses = 64;
constexpr size_t kRepairUpdates = 3;
constexpr size_t kStaleAuditKeys = 32;
// Latency reconciliation (see ReconcileLatency): the most the typical
// drain may take from its start stamp to its first route call.
constexpr int64_t kDispatchTolUs = 50;

using Clock = std::chrono::steady_clock;

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool SameResult(const Result<RouteResult>& a, const Result<RouteResult>& b) {
  if (a.ok() != b.ok()) return false;
  return a.ok() ? *a == *b : a.status().code() == b.status().code();
}

double Share(double part, double whole) {
  return whole > 0 ? part / whole : 0;
}

/// Collected metric values of one pass, by name.
class Metrics {
 public:
  void Set(const std::string& name, double value, uint64_t samples = 0) {
    values_[name] = {value, samples};
  }
  bool Has(const std::string& name) const { return values_.count(name); }
  std::pair<double, uint64_t> Get(const std::string& name) const {
    return values_.at(name);
  }

 private:
  std::map<std::string, std::pair<double, uint64_t>> values_;
};

struct SetupRecord {
  double seconds = 0;
  l2r::L2RBuildReport report;
  double b_edge_share = 0;
};

/// State shared by the passes of one run.
struct Run {
  const RunOptions& options;
  Dataset& data;
  std::vector<Query> pool;
  std::vector<SetupRecord> setups;
  RunReport& report;

  void Fail(const std::string& what) {
    report.correct = false;
    report.failures.push_back(what);
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  uint64_t Seed(uint64_t stream) const {
    return SubSeed(options.seed, stream);
  }
};

std::unique_ptr<Stack> Setup(Run& run, FrontEnd front_end) {
  double seconds = 0;
  auto stack = BuildStack(run.data, front_end, run.options.threads, &seconds);
  SetupRecord record;
  record.seconds = seconds;
  record.report = stack->router->build_report();
  double t = 0;
  double b = 0;
  for (int p = 0; p < l2r::kNumTimePeriods; ++p) {
    const auto period = static_cast<l2r::TimePeriod>(p);
    if (!stack->router->has_region_graph(period)) continue;
    t += static_cast<double>(stack->router->region_graph(period).NumTEdges());
    b += static_cast<double>(stack->router->region_graph(period).NumBEdges());
  }
  record.b_edge_share = Share(b, t + b);
  run.setups.push_back(record);
  return stack;
}

/// Sequential cold-path reference: L2RRouter::Route with the serving
/// stack's full settle cap and no memo.
class Reference {
 public:
  explicit Reference(const Stack& stack)
      : router_(*stack.router), ctx_(router_.MakeContext()) {
    hooks_.budget.max_preference_settles =
        stack.serving->deadline_budget().MaxPreferenceSettles();
  }
  Result<RouteResult> Route(const Query& q) {
    return router_.Route(&ctx_, q.s, q.d, q.departure_time, hooks_);
  }

 private:
  const l2r::L2RRouter& router_;
  l2r::L2RQueryContext ctx_;
  l2r::ServeHooks hooks_;
};

/// Mean Eq. 1 / Eq. 4 similarity (percent) of served routes to ground
/// truth over the pool entries that were served; a failed route scores 0.
std::pair<double, double> Accuracy(
    const l2r::RoadNetwork& net, const std::vector<Query>& pool,
    const std::vector<std::optional<Result<RouteResult>>>& served,
    uint64_t* count) {
  double eq1 = 0;
  double eq4 = 0;
  uint64_t n = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (!served[i].has_value()) continue;
    ++n;
    const Result<RouteResult>& r = *served[i];
    if (!r.ok()) continue;
    eq1 += l2r::PathSimilarity(net, pool[i].gt_path, r->path.vertices);
    eq4 += l2r::PathSimilarityJaccard(net, pool[i].gt_path, r->path.vertices);
  }
  *count = n;
  return {100.0 * Share(eq1, static_cast<double>(n)),
          100.0 * Share(eq4, static_cast<double>(n))};
}

/// Applies `batches` back to back, timing each Apply (microseconds).
std::vector<double> ApplyAll(
    Stack& stack, const std::vector<l2r::WorldUpdateBatch>& batches) {
  std::vector<double> us;
  for (const l2r::WorldUpdateBatch& batch : batches) {
    const auto t0 = Clock::now();
    {
      ScopedSpan span(SpanName::kWorldApply, 0);
      stack.channel->Apply(batch);
    }
    us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  return us;
}

/// The write path with no traffic and no repair running, over the
/// workload's warm cache: kUpdatePasses seeded schedules applied one after
/// another (each ends with the world restored), every Apply timed. Checks
/// the world bytes against epoch 0 after each.
std::vector<double> TimeQuiescentUpdates(Run& run, Stack& stack,
                                         const WorldBytes& world0) {
  const l2r::RoadNetwork& net = run.data.built.world.net;
  std::vector<double> us;
  for (int pass = 0; pass < kUpdatePasses; ++pass) {
    const std::vector<double> times = ApplyAll(
        stack, MakeUpdateSchedule(net, run.pool, kQuiescentUpdates,
                                  run.Seed(200 + pass)));
    us.insert(us.end(), times.begin(), times.end());
    run.Check(CaptureWorld(net, *stack.router) == world0,
              "world bytes differ from epoch 0 after the restore");
  }
  run.Check(us.size() >= SamplesNeeded(0.9, 10),
            "too few updates for ten samples beyond p90");
  return us;
}

/// Apply times are layer metrics, not end-to-end ones: an Apply takes
/// ~2 us, almost all of it memory access, and its p50 moved 1.45-2.53 us
/// over ten runs while the host's speed (setup time) moved 19%.
void SetUpdateLayers(Metrics& m, const std::vector<double>& apply_us) {
  m.Set("world.apply_us.p50", Percentile(apply_us, 0.5), apply_us.size());
  m.Set("world.apply_us.p90", Percentile(apply_us, 0.9), apply_us.size());
}

// ---------------------------------------------------------------- traces

/// Spans of one name whose start lies in [lo_ns, hi_ns].
std::vector<Span> SpansIn(const std::vector<Span>& spans, SpanName name,
                          int64_t lo_ns, int64_t hi_ns) {
  std::vector<Span> out;
  for (const Span& s : spans) {
    if (s.name == name && s.start_ns >= lo_ns && s.start_ns <= hi_ns) {
      out.push_back(s);
    }
  }
  return out;
}

/// Replays each missed key through L2RRouter::Route under the serving
/// cap (no memo), timing it and counting settled vertices.
struct Replay {
  std::unordered_map<uint64_t, double> core_us;  // packed key -> us
  std::vector<double> route_us;
  uint64_t method[4] = {0, 0, 0, 0};
  uint64_t degraded = 0;
  uint64_t settles = 0;
  double total_us = 0;
};

Replay ReplayMisses(const Stack& stack, const std::vector<Query>& pool,
                    const std::vector<uint32_t>& missed) {
  Replay replay;
  const l2r::L2RRouter& router = *stack.router;
  l2r::L2RQueryContext ctx = router.MakeContext();
  l2r::ServeHooks hooks;
  hooks.budget.max_preference_settles =
      stack.serving->deadline_budget().MaxPreferenceSettles();
  for (const uint32_t i : missed) {
    const Query& q = pool[i];
    const uint64_t key = PackKey(q.s, q.d, q.period);
    const uint64_t settles_before = ctx.TotalSettles();
    const int64_t t0 = NowNs();
    Result<RouteResult> r{l2r::Status::Internal("unset")};
    {
      ScopedSpan span(SpanName::kCoreRoute, key);
      r = router.Route(&ctx, q.s, q.d, q.departure_time, hooks);
    }
    const double us = static_cast<double>(NowNs() - t0) / 1e3;
    replay.core_us[key] = us;
    replay.route_us.push_back(us);
    replay.total_us += us;
    replay.settles += ctx.TotalSettles() - settles_before;
    if (r.ok()) {
      ++replay.method[static_cast<int>(r->method)];
      if (r->budget_degraded) ++replay.degraded;
    }
  }
  return replay;
}

/// Layer metrics shared by every workload: the serve.route spans of the
/// measured window, the replay of its misses and the world pin waits.
void SetServeAndCoreLayers(Metrics& m, const Stack& stack,
                           const std::vector<Query>& pool,
                           const std::vector<Span>& spans, int64_t lo_ns,
                           int64_t hi_ns) {
  std::unordered_map<uint64_t, uint32_t> index_of;
  for (uint32_t i = 0; i < pool.size(); ++i) {
    index_of[PackKey(pool[i].s, pool[i].d, pool[i].period)] = i;
  }
  const std::vector<Span> calls =
      SpansIn(spans, SpanName::kServeRoute, lo_ns, hi_ns);
  std::vector<uint32_t> missed;
  std::unordered_set<uint64_t> missed_keys;
  std::vector<double> route_us;
  std::vector<double> hit_us;
  for (const Span& s : calls) {
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    route_us.push_back(us);
    if (s.flags & kSpanCacheHit) {
      hit_us.push_back(us);
    } else if (missed_keys.insert(s.request).second) {
      const auto it = index_of.find(s.request);
      if (it != index_of.end()) missed.push_back(it->second);
    }
  }
  const Replay replay = ReplayMisses(stack, pool, missed);
  std::vector<double> miss_self_us;
  for (const Span& s : calls) {
    if (s.flags & kSpanCacheHit) continue;
    const auto it = replay.core_us.find(s.request);
    if (it == replay.core_us.end()) continue;
    miss_self_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3 -
                           it->second);
  }
  m.Set("serve.route_us.p50", Percentile(route_us, 0.5), route_us.size());
  m.Set("serve.route_us.p99", Percentile(route_us, 0.99), route_us.size());
  m.Set("serve.hit_us.p50", Percentile(hit_us, 0.5), hit_us.size());
  m.Set("serve.miss_self_us.p50", Percentile(miss_self_us, 0.5),
        miss_self_us.size());

  const double n = static_cast<double>(replay.route_us.size());
  m.Set("core.route_us.p50", Percentile(replay.route_us, 0.5),
        replay.route_us.size());
  m.Set("core.route_us.p99", Percentile(replay.route_us, 0.99),
        replay.route_us.size());
  const char* methods[4] = {"inner_popular", "region_graph", "preference",
                            "fastest_fallback"};
  for (int k = 0; k < 4; ++k) {
    m.Set(std::string("core.method_share.") + methods[k],
          Share(static_cast<double>(replay.method[k]), n));
  }
  m.Set("core.degraded_share", Share(static_cast<double>(replay.degraded), n));
  m.Set("routing.settles_per_query",
        Share(static_cast<double>(replay.settles), n), replay.route_us.size());
  m.Set("routing.settles_per_us",
        Share(static_cast<double>(replay.settles), replay.total_us),
        replay.route_us.size());

  std::vector<double> pin_us;
  for (const Span& s :
       SpansIn(spans, SpanName::kWorldAcquireRead, lo_ns, hi_ns)) {
    pin_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  m.Set("world.pin_wait_us.p99", Percentile(pin_us, 0.99), pin_us.size());
}

/// A drained batch's wall interval on the span clock.
struct BatchWindow {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;  ///< stream batch_seq; unused for RouteAll batches
};

/// core.batch.*: per batch, the wall time W, each routing thread's busy
/// time (the serve.route spans it ran inside the batch) and the dispatch
/// self time: the batch's self time against its busiest thread's spans,
/// W - max busy. Reconciliation: every serve.route span of the window lies
/// inside one batch (within `tol_ns`), no thread is busier than W and the
/// busy sum fits threads x W. With `first_call_ns`, also gives each
/// batch's earliest serve.route span start, by BatchWindow::id.
void SetBatchLayers(Run& run, Metrics& m, std::vector<BatchWindow> batches,
                    const std::vector<Span>& calls, unsigned threads,
                    int64_t tol_ns,
                    std::map<uint64_t, int64_t>* first_call_ns = nullptr) {
  std::sort(batches.begin(), batches.end(),
            [](const BatchWindow& a, const BatchWindow& b) {
              return a.start_ns < b.start_ns;
            });
  std::vector<std::map<uint16_t, std::vector<Span>>> by_thread(
      batches.size());
  uint64_t outside = 0;
  for (const Span& s : calls) {
    auto it = std::upper_bound(
        batches.begin(), batches.end(), s.start_ns + tol_ns,
        [](int64_t t, const BatchWindow& b) { return t < b.start_ns; });
    if (it == batches.begin()) {
      ++outside;
      continue;
    }
    --it;
    if (s.end_ns > it->end_ns + tol_ns) {
      ++outside;
      continue;
    }
    by_thread[static_cast<size_t>(it - batches.begin())][s.thread].push_back(
        s);
  }
  double self_sum = 0;
  double busy_sum = 0;
  double wall_sum = 0;
  uint64_t over = 0;
  for (size_t b = 0; b < batches.size(); ++b) {
    Span window;
    window.start_ns = batches[b].start_ns;
    window.end_ns = batches[b].end_ns;
    const int64_t wall = window.end_ns - window.start_ns;
    int64_t self = wall;
    int64_t max_busy = 0;
    int64_t total = 0;
    for (const auto& [thread, spans] : by_thread[b]) {
      self = std::min(self, SelfTimeNs(window, spans));
      int64_t busy = 0;
      for (const Span& s : spans) {
        busy += s.end_ns - s.start_ns;
        if (first_call_ns != nullptr) {
          auto [it, inserted] =
              first_call_ns->try_emplace(batches[b].id, s.start_ns);
          if (!inserted) it->second = std::min(it->second, s.start_ns);
        }
      }
      max_busy = std::max(max_busy, busy);
      total += busy;
    }
    if (max_busy > wall + tol_ns ||
        total > static_cast<int64_t>(threads) * (wall + tol_ns)) {
      ++over;
    }
    self_sum += static_cast<double>(self);
    busy_sum += static_cast<double>(total);
    wall_sum += static_cast<double>(wall);
  }
  run.Check(outside == 0, "batch reconciliation: " + std::to_string(outside) +
                              " serve.route spans outside every batch");
  run.Check(over == 0, "batch reconciliation: " + std::to_string(over) +
                           " batches whose busy time exceeds their wall time");
  const double n = static_cast<double>(batches.size());
  m.Set("core.batch.dispatch_self_us", Share(self_sum, n) / 1e3,
        batches.size());
  m.Set("core.batch.busy_share",
        Share(busy_sum, static_cast<double>(threads) * wall_sum),
        batches.size());
}

/// Counter reconciliation over one phase: every service call is one cache
/// hit or miss, every miss one flight leader or follower.
void CheckServeStats(Run& run, const l2r::ServingRouter::Stats& before,
                     const l2r::ServingRouter::Stats& after,
                     uint64_t calls, const char* phase) {
  const uint64_t hits = after.cache.hits - before.cache.hits;
  const uint64_t misses = after.cache.misses - before.cache.misses;
  const uint64_t hot = after.cache.hot_hits - before.cache.hot_hits;
  const uint64_t leaders =
      after.single_flight.leaders - before.single_flight.leaders;
  const uint64_t coalesced =
      after.single_flight.coalesced - before.single_flight.coalesced;
  const std::string p(phase);
  run.Check(hits + misses == calls,
            p + ": cache hits + misses != service calls (" +
                std::to_string(hits + misses) + " vs " +
                std::to_string(calls) + ")");
  run.Check(leaders + coalesced == misses,
            p + ": flight leaders + coalesced != cache misses");
  run.Check(hot <= hits, p + ": hot hits exceed hits");
}

void SetServeStatLayers(Metrics& m, const l2r::ServingRouter::Stats& before,
                        const l2r::ServingRouter::Stats& after) {
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  m.Set("serve.cache.hit_rate", Share(hits, hits + misses));
  m.Set("serve.cache.hot_share",
        Share(static_cast<double>(after.cache.hot_hits -
                                  before.cache.hot_hits),
              hits));
  m.Set("serve.cache.evictions",
        static_cast<double>(after.cache.evictions - before.cache.evictions));
  m.Set("serve.flight.coalesced_share",
        Share(static_cast<double>(after.single_flight.coalesced -
                                  before.single_flight.coalesced),
              misses));
  const double memo_hits =
      static_cast<double>(after.memo.edge_hits - before.memo.edge_hits +
                          after.memo.connector_hits -
                          before.memo.connector_hits);
  m.Set("serve.memo.hits_per_miss", Share(memo_hits, misses));
}

void SetStaleValidLayer(Metrics& m, const l2r::ServingRouter::Stats& before,
                        const l2r::ServingRouter::Stats& after) {
  const double current = static_cast<double>(
      after.epoch_serves.current_epoch - before.epoch_serves.current_epoch);
  const double stale = static_cast<double>(
      after.epoch_serves.stale_valid_epoch -
      before.epoch_serves.stale_valid_epoch);
  m.Set("world.stale_valid_share", Share(stale, current + stale));
}

void SetRepairLayers(Metrics& m, const l2r::RouteRepairer::BackgroundStats& a,
                     const l2r::RouteRepairer::BackgroundStats& b) {
  const uint64_t candidates = b.candidates - a.candidates;
  const uint64_t repaired = b.repaired - a.repaired;
  m.Set("world.repair.repaired", static_cast<double>(repaired));
  m.Set("world.repair.full_recompute",
        static_cast<double>(b.full_recompute - a.full_recompute));
  m.Set("world.repair.settles",
        static_cast<double>(b.repair_settles - a.repair_settles));
  m.Set("world.repair.convergence",
        candidates == 0 ? 1.0
                        : Share(static_cast<double>(repaired),
                                static_cast<double>(candidates)));
}

l2r::ServingRouter::Stats ServeStats(const Stack& stack) {
  ScopedSpan span(SpanName::kServeGetStats, 0);
  return stack.serving->GetStats();
}

l2r::RouteRepairer::BackgroundStats RepairStats(const Stack& stack) {
  ScopedSpan span(SpanName::kRepairGetStats, 0);
  return stack.repairer->GetBackgroundStats();
}

l2r::StreamRouter::Stats StreamStats(const Stack& stack) {
  ScopedSpan span(SpanName::kStreamGetStats, 0);
  return stack.stream->GetStats();
}

/// The stream layers no batch front-end has: measured as absent.
void SetNoStreamLayers(Metrics& m) {
  for (const char* name :
       {"stream.gen_late_us.p99", "stream.submit_us.p99",
        "stream.queue_wait_us.p50", "stream.queue_wait_us.p99",
        "stream.backlog_us.p50", "stream.backlog_us.p99",
        "stream.drain_us.p50", "stream.drain_us.p99",
        "stream.batch_size.mean", "stream.deadline_close_share",
        "stream.dedup_share", "stream.capacity_qps",
        "overload.shed_share.interactive", "overload.shed_share.bulk",
        "overload.level_raises"}) {
    m.Set(name, 0);
  }
}

// ------------------------------------------------------------ cold_batch

struct PassResult {
  Metrics e2e;
  Metrics layers;
  /// The figure trace.overhead compares, oriented so that larger = slower.
  double cost = 0;
};

/// Returns a freshly set-up stack (each call replaces the last one).
using StackSource = std::function<Stack&()>;

/// cold_batch measures `chunks` chunks of seconds / chunks each, each on a
/// stack from `fresh_stack`. An untraced run takes one chunk per setup,
/// measuring between the setups: the host's speed drifts over tens of
/// seconds, and a measurement spread over the whole run varies less from
/// run to run than one taken in a single stretch after the setups.
void ColdBatchPass(Run& run, const StackSource& fresh_stack, int chunks,
                   bool traced, PassResult* out) {
  const std::vector<Query>& pool = run.pool;
  const l2r::RoadNetwork& net = run.data.built.world.net;
  const size_t n = pool.size() - pool.size() % kColdBatch;
  std::vector<BatchQuery> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    queries.push_back({pool[i].s, pool[i].d, pool[i].departure_time});
  }
  const double chunk_seconds = run.options.seconds / chunks;

  std::vector<std::optional<Result<RouteResult>>> first(pool.size());
  std::vector<double> batch_us;
  std::vector<BatchWindow> windows;
  uint64_t routed = 0;
  uint64_t ok = 0;
  double elapsed = 0;
  Stack* stack = nullptr;
  l2r::ServingRouter::Stats before;
  l2r::ServingRouter::Stats after;
  l2r::RouteRepairer::BackgroundStats repair_before;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  for (int chunk = 0; chunk < chunks; ++chunk) {
    stack = &fresh_stack();
    // Warm-up: start the pool threads and fill contexts with the pool's
    // tail, which the cycle evicts again before it comes round.
    (void)stack->batch->RouteAll(std::vector<BatchQuery>(
        queries.end() - static_cast<std::ptrdiff_t>(kColdWarmup),
        queries.end()));

    before = ServeStats(*stack);
    const uint64_t calls_before = stack->service->calls();
    repair_before = RepairStats(*stack);
    size_t cursor = 0;
    bool first_pass_done = false;
    std::vector<BatchQuery> batch(kColdBatch);
    const auto start = Clock::now();
    start_ns = NowNs();
    while (true) {
      std::copy_n(queries.begin() + static_cast<std::ptrdiff_t>(cursor),
                  kColdBatch, batch.begin());
      const int64_t t0 = NowNs();
      std::vector<Result<RouteResult>> results;
      {
        ScopedSpan span(SpanName::kRouteAll, cursor);
        results = stack->batch->RouteAll(batch);
      }
      const int64_t t1 = NowNs();
      batch_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      if (traced) windows.push_back({t0, t1});
      routed += results.size();
      for (size_t k = 0; k < results.size(); ++k) {
        if (results[k].ok()) ++ok;
        if (chunk == 0 && !first_pass_done) {
          first[cursor + k] = std::move(results[k]);
        }
      }
      cursor += kColdBatch;
      if (cursor == n) {
        cursor = 0;
        first_pass_done = true;
      }
      const double chunk_elapsed =
          std::chrono::duration<double>(Clock::now() - start).count();
      if (first_pass_done && chunk_elapsed >= chunk_seconds) break;
    }
    elapsed += std::chrono::duration<double>(Clock::now() - start).count();
    end_ns = NowNs();
    after = ServeStats(*stack);
    CheckServeStats(run, before, after, stack->service->calls() - calls_before,
                    "cold_batch");

    if (chunk > 0) continue;
    // Audit: a seeded sample of the first pass's served routes against
    // the sequential reference under the same cap, on the stack that
    // served them.
    Reference reference(*stack);
    l2r::Rng rng(run.Seed(20));
    uint64_t mismatches = 0;
    for (size_t k = 0; k < kColdAuditSample; ++k) {
      const size_t i = rng.Index(n);
      mismatches += !first[i].has_value() ||
                    !SameResult(*first[i], reference.Route(pool[i]));
    }
    run.Check(mismatches == 0,
              "cold_batch audit: " + std::to_string(mismatches) +
                  " served routes differ from the sequential reference");
  }
  run.report.attempted += routed;
  run.report.failed += routed - ok;

  Metrics& e = out->e2e;
  const double qps = static_cast<double>(routed) / elapsed;
  out->cost = 1.0 / qps;
  e.Set("batch_qps", qps, routed);
  // Every query of a batch completes when its RouteAll call returns. The
  // tail percentiles are layer metrics (below).
  e.Set("p50_us", Percentile(batch_us, 0.5), routed);
  e.Set("served_share", Share(static_cast<double>(ok),
                              static_cast<double>(routed)), routed);
  uint64_t scored = 0;
  const auto [eq1, eq4] = Accuracy(net, pool, first, &scored);
  e.Set("accuracy_eq1_pct", eq1, scored);
  e.Set("accuracy_eq4_pct", eq4, scored);

  const WorldBytes world0 = CaptureWorld(net, *stack->router);
  const l2r::ServingRouter::Stats before_updates = ServeStats(*stack);
  const std::vector<double> apply_us =
      TimeQuiescentUpdates(run, *stack, world0);
  SetUpdateLayers(out->layers, apply_us);

  if (!traced) return;
  // A traced pass has one chunk: the stats and spans below are its own.
  Metrics& m = out->layers;
  const std::vector<Span> spans = Tracer::Collect();
  SetServeAndCoreLayers(m, *stack, pool, spans, start_ns, end_ns);
  SetBatchLayers(run, m, windows,
                 SpansIn(spans, SpanName::kServeRoute, start_ns, end_ns),
                 stack->route_threads, 0);
  SetServeStatLayers(m, before, after);
  SetStaleValidLayer(m, before, after);
  SetNoStreamLayers(m);
  // p90 and p99 as the median over chunks of consecutive batches, each
  // large enough for ten samples beyond it.
  m.Set("latency.p90_us",
        ChunkedPercentile(batch_us, SamplesNeeded(0.9, 10), 0.9), routed);
  m.Set("latency.p99_us",
        ChunkedPercentile(batch_us, SamplesNeeded(0.99, 10), 0.99), routed);
  // No lookup or repair follows the updates here, so the count only
  // covers what Apply itself removed.
  const l2r::ServingRouter::Stats after_updates = ServeStats(*stack);
  m.Set("world.invalidated_per_update",
        Share(static_cast<double>(after_updates.cache.invalidated -
                                  before_updates.cache.invalidated),
              static_cast<double>(apply_us.size())));
  SetRepairLayers(m, repair_before, RepairStats(*stack));
}

// ----------------------------------------------------- open-loop streams

/// One request's timeline on the stack clock (microseconds).
struct Sample {
  int64_t due = 0;
  int64_t submit_start = 0;
  int64_t submit_end = 0;
  int64_t callback = 0;
  int64_t queue_wait = 0;
  int64_t drain_wait = 0;
  uint64_t batch_seq = 0;
  uint32_t batch_size = 0;
  bool deadline_close = false;
  bool accepted = false;
  bool shed = false;
  bool ok = false;
  bool audit_ok = true;
};

/// What callbacks check and keep.
struct CallbackSink {
  const std::vector<Query>* pool = nullptr;
  /// Sequential reference result per pool entry.
  const std::vector<Result<RouteResult>>* reference = nullptr;
  const l2r::RoadNetwork* net = nullptr;
  /// First served result per pool entry; null = not recorded.
  std::vector<std::optional<Result<RouteResult>>>* first = nullptr;
  std::vector<std::atomic<uint8_t>>* first_taken = nullptr;
};

struct Phase {
  std::vector<Sample> samples;
  int64_t base_us = 0;
  size_t outstanding_at_end = 0;
  bool drained = false;
};

void WaitUntil(const l2r::Clock& clock, int64_t t_us) {
  while (true) {
    const int64_t now = clock.NowMicros();
    if (now >= t_us) return;
    if (t_us - now > 300) {
      std::this_thread::sleep_for(std::chrono::microseconds(t_us - now - 200));
    }
  }
}

/// Sends `requests` on schedule from the calling thread (the generator)
/// and waits for every callback. Each callback audits its result: a
/// non-degraded route must equal the sequential reference, a degraded
/// one must be a valid s -> d path.
Phase RunOpenLoop(Stack& stack, const std::vector<Request>& requests,
                  const CallbackSink& sink) {
  Phase phase;
  phase.samples.resize(requests.size());
  const l2r::Clock& clock = stack.clock;
  std::atomic<size_t> done{0};
  phase.base_us = clock.NowMicros() + 1000;
  for (size_t i = 0; i < requests.size(); ++i) {
    const int64_t due = phase.base_us + requests[i].due_us;
    WaitUntil(clock, due);
    Sample& s = phase.samples[i];
    s.due = due;
    s.submit_start = clock.NowMicros();
    const uint32_t qi = requests[i].query;
    const Query* q = &(*sink.pool)[qi];
    const BatchQuery query{q->s, q->d, q->departure_time, requests[i].cls};
    Sample* slot = &s;
    {
      ScopedSpan span(SpanName::kStreamSubmit, i);
      s.accepted = stack.stream->Submit(
          query, [slot, q, qi, &sink, &clock, &done](
                     const l2r::StreamResult& r) {
            slot->callback = clock.NowMicros();
            slot->queue_wait = r.queue_wait_us;
            slot->drain_wait = r.drain_wait_us;
            slot->batch_seq = r.batch_seq;
            slot->batch_size = static_cast<uint32_t>(r.batch_size);
            slot->deadline_close = r.closed_by_deadline;
            slot->shed = r.shed;
            slot->ok = r.result.ok();
            if (slot->ok) {
              slot->audit_ok =
                  r.result->budget_degraded
                      ? ValidPath(*sink.net, r.result->path, q->s, q->d)
                      : SameResult(r.result, (*sink.reference)[qi]);
            }
            if (!r.shed && sink.first != nullptr &&
                (*sink.first_taken)[qi].exchange(1) == 0) {
              (*sink.first)[qi] = r.result;
            }
            done.fetch_add(1, std::memory_order_release);
          });
    }
    s.submit_end = clock.NowMicros();
    if (!s.accepted) done.fetch_add(1, std::memory_order_release);
  }
  phase.outstanding_at_end =
      requests.size() - done.load(std::memory_order_acquire);
  const int64_t give_up = clock.NowMicros() + 20'000'000;
  while (done.load(std::memory_order_acquire) < requests.size() &&
         clock.NowMicros() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  phase.drained = done.load(std::memory_order_acquire) == requests.size();
  // Callbacks reference this frame: a stream that did not drain is shut
  // down (which runs every pending callback) before it is left.
  if (!phase.drained) stack.stream->Shutdown();
  return phase;
}

/// Latency from due time to callback; a request that was refused, shed
/// or failed counts as +infinity (it misses every limit).
std::vector<double> Latencies(const Phase& phase) {
  std::vector<double> out;
  out.reserve(phase.samples.size());
  for (const Sample& s : phase.samples) {
    out.push_back(s.accepted && s.ok && !s.shed
                      ? static_cast<double>(s.callback - s.due)
                      : std::numeric_limits<double>::infinity());
  }
  return out;
}

/// The q-quantile of latency as the median over `window_us` windows (by
/// due time) of each window's q-quantile. A stall of a few tens of ms,
/// which this shared host shows now and then, and a rare very slow miss
/// on the single drain thread move one window's tail; sustained overload
/// moves them all.
double WindowedPercentile(const Phase& phase, int64_t window_us, double q) {
  const std::vector<double> lat = Latencies(phase);
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < lat.size(); ++i) {
    const size_t w = static_cast<size_t>(
        (phase.samples[i].due - phase.base_us) / window_us);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(lat[i]);
  }
  std::vector<double> tails;
  for (const std::vector<double>& w : windows) {
    if (TailSupported(w.size(), q)) tails.push_back(Percentile(w, q));
  }
  return tails.empty() ? Percentile(lat, q) : Median(tails);
}

uint64_t Served(const Phase& phase) {
  uint64_t n = 0;
  for (const Sample& s : phase.samples) n += s.accepted && s.ok && !s.shed;
  return n;
}

/// A rate passes when its windowed p99 (failed and shed requests count as
/// infinitely late) is within the limit and the backlog did not grow: no
/// more requests were outstanding after the last send than the rate sends
/// in two limits. (The count is one instant's reading; a backlog that
/// really grows also pushes the last windows' p99 past the limit.)
bool RatePasses(const Phase& phase, double rate) {
  const double in_flight = std::max(64.0, 2 * rate * kLimitUs / 1e6);
  return phase.drained &&
         WindowedPercentile(phase, kStepWindowUs, 0.99) <= kLimitUs &&
         static_cast<double>(phase.outstanding_at_end) <= in_flight;
}

void CheckPhase(Run& run, const Phase& phase, const char* name) {
  uint64_t bad = 0;
  uint64_t refused = 0;
  for (const Sample& s : phase.samples) {
    bad += !s.audit_ok;
    refused += !s.accepted;
  }
  const std::string p(name);
  run.Check(phase.drained, p + ": callbacks still missing after 20 s");
  run.Check(refused == 0, p + ": " + std::to_string(refused) +
                              " submits refused by a running stream");
  run.Check(bad == 0, p + ": " + std::to_string(bad) +
                          " results differ from the sequential reference "
                          "or are not valid paths");
}

/// stream.* layers of the reference phase. Drain runs from the estimated
/// drain start (send time + drain wait) to the callback. Each drained
/// batch's window, estimated drain start to last callback, goes to
/// `batches`.
void SetStreamLayers(Metrics& m, const Phase& phase,
                     std::vector<BatchWindow>* batches,
                     int64_t clock_offset_ns) {
  std::vector<double> late, submit, queue, backlog, drain;
  std::map<uint64_t, std::pair<const Sample*, BatchWindow>> by_batch;
  for (const Sample& s : phase.samples) {
    late.push_back(static_cast<double>(s.submit_start - s.due));
    submit.push_back(static_cast<double>(s.submit_end - s.submit_start));
    if (!s.accepted || !s.ok || s.shed) continue;
    queue.push_back(static_cast<double>(s.queue_wait));
    backlog.push_back(static_cast<double>(s.drain_wait - s.queue_wait));
    drain.push_back(
        static_cast<double>(s.callback - s.submit_start - s.drain_wait));
    const int64_t start_ns =
        (s.submit_start + s.drain_wait) * 1000 + clock_offset_ns;
    const int64_t end_ns = s.callback * 1000 + clock_offset_ns;
    auto [it, inserted] = by_batch.try_emplace(
        s.batch_seq, &s, BatchWindow{start_ns, end_ns, s.batch_seq});
    if (!inserted) {
      it->second.second.start_ns =
          std::min(it->second.second.start_ns, start_ns);
      it->second.second.end_ns = std::max(it->second.second.end_ns, end_ns);
    }
  }
  m.Set("stream.gen_late_us.p99", Percentile(late, 0.99), late.size());
  m.Set("stream.submit_us.p99", Percentile(submit, 0.99), submit.size());
  m.Set("stream.queue_wait_us.p50", Percentile(queue, 0.5), queue.size());
  m.Set("stream.queue_wait_us.p99", Percentile(queue, 0.99), queue.size());
  m.Set("stream.backlog_us.p50", Percentile(backlog, 0.5), backlog.size());
  m.Set("stream.backlog_us.p99", Percentile(backlog, 0.99), backlog.size());
  m.Set("stream.drain_us.p50", Percentile(drain, 0.5), drain.size());
  m.Set("stream.drain_us.p99", Percentile(drain, 0.99), drain.size());
  double size_sum = 0;
  double deadline = 0;
  for (const auto& [seq, entry] : by_batch) {
    size_sum += entry.first->batch_size;
    deadline += entry.first->deadline_close;
    batches->push_back(entry.second);
  }
  const double nb = static_cast<double>(by_batch.size());
  m.Set("stream.batch_size.mean", Share(size_sum, nb), by_batch.size());
  m.Set("stream.deadline_close_share", Share(deadline, nb), by_batch.size());
}

/// Per-request latency reconciliation of the reference phase. Generator
/// lateness (send - due) is read on the generator's clock, queue wait and
/// backlog from the StreamResult, and the drain part independently, from
/// the batch's first serve.route span (recorded by the bench decorator)
/// to the callback. The four parts plus a residual make up due ->
/// callback; the residual is the time the stream spent before stamping
/// the request (inside Submit) and between its drain stamp and the first
/// route call. So every request must have a residual of at least -2 us
/// (microsecond stamps): no route starts before its drain. The residual
/// beyond the request's own Submit time must be at most kDispatchTolUs
/// at the median; a stall of the host in that gap pushes single requests
/// far past it.
void ReconcileLatency(Run& run, const Phase& phase,
                      const std::map<uint64_t, int64_t>& first_call_ns,
                      int64_t clock_offset_ns) {
  uint64_t missing = 0;
  uint64_t negative = 0;
  std::vector<double> excess;
  for (const Sample& s : phase.samples) {
    if (!s.accepted || !s.ok || s.shed) continue;
    const auto it = first_call_ns.find(s.batch_seq);
    if (it == first_call_ns.end()) {
      ++missing;
      continue;
    }
    const int64_t first_call_us = (it->second - clock_offset_ns) / 1000;
    const int64_t gen = s.submit_start - s.due;
    const int64_t queue = s.queue_wait;
    const int64_t backlog = s.drain_wait - s.queue_wait;
    const int64_t drain = s.callback - first_call_us;
    const int64_t residual = (s.callback - s.due) -
                             (gen + queue + backlog + drain);
    negative += residual < -2;
    excess.push_back(
        static_cast<double>(residual - (s.submit_end - s.submit_start)));
  }
  run.Check(missing == 0, "stream reconciliation: " +
                              std::to_string(missing) +
                              " requests whose batch has no serve.route span");
  run.Check(negative == 0,
            "stream reconciliation: " + std::to_string(negative) +
                " requests whose parts exceed their latency");
  const double median_excess = Median(excess);
  run.Check(median_excess <= static_cast<double>(kDispatchTolUs),
            "stream reconciliation: the parts fall short of the latency by " +
                std::to_string(median_excess) +
                " us beyond the Submit time at the median (limit " +
                std::to_string(kDispatchTolUs) + " us)");
  std::fprintf(stderr,
               "[reconcile] %zu requests; residual beyond Submit time: "
               "median %.0f us, p99 %.0f us\n",
               excess.size(), median_excess, Percentile(excess, 0.99));
}

/// What the capacity ladder found, with the stream and controller stats
/// around it.
struct Ladder {
  double capacity = 0;
  uint64_t sent = 0;
  l2r::StreamRouter::Stats stream_before;
  l2r::StreamRouter::Stats stream_after;
  l2r::OverloadController::Stats control_before;
  l2r::OverloadController::Stats control_after;
};

void ZipfStreamPass(Run& run, Stack& stack, bool traced, PassResult* out) {
  const std::vector<Query>& pool = run.pool;
  l2r::RoadNetwork& net = run.data.built.world.net;
  const WorldBytes world0 = CaptureWorld(net, *stack.router);
  const double ref_seconds = run.options.seconds;

  // Sequential reference per pool key (independent Route calls, spread
  // over the run's threads, each on its own context).
  std::vector<Result<RouteResult>> reference(
      pool.size(), Result<RouteResult>(l2r::Status::Internal("unset")));
  l2r::ParallelForWorker(
      pool.size(), [&stack] { return std::make_unique<Reference>(stack); },
      [&](std::unique_ptr<Reference>& ref, size_t i) {
        reference[i] = ref->Route(pool[i]);
      },
      run.options.threads);
  CallbackSink sink;
  sink.pool = &pool;
  sink.reference = &reference;
  sink.net = &net;

  const ZipfSampler zipf(kHotKeys, 1.0, run.Seed(50));
  TrafficMix mix;
  mix.hot = &zipf;
  mix.hot_size = kHotKeys;
  mix.cold_size = pool.size() - kHotKeys;
  mix.miss_share = kColdShare;
  mix.bulk_share = kBulkShare;
  size_t cold_cursor = 0;
  const auto requests = [&](double rate, double seconds, uint64_t stream) {
    return OpenLoopRequests(mix, rate, static_cast<int64_t>(seconds * 1e6),
                            run.Seed(stream), &cold_cursor);
  };

  const l2r::RouteRepairer::BackgroundStats repair_before = RepairStats(stack);
  // Warm-up: fills the cache and starts every thread; not measured.
  const std::vector<Request> warmup =
      requests(kWarmupQps, kWarmupSeconds, 40);
  CheckPhase(run, RunOpenLoop(stack, warmup, sink), "warm-up");

  // World updates on the idle stream: two incidents and a closure on
  // edges that routes cached in the warm-up ride, whose invalidated
  // entries the drain repairs in the background. A seeded sample of the
  // cached keys, those whose route crosses an updated edge first, is then
  // served and must equal a cold recomputation on the current epoch (no
  // stale serve). The restore that follows invalidates every entry;
  // measuring starts once the drain has repaired them all.
  std::vector<uint32_t> cached;
  {
    std::unordered_set<uint32_t> seen;
    for (const Request& r : warmup) {
      if (reference[r.query].ok() && seen.insert(r.query).second) {
        cached.push_back(r.query);
      }
    }
  }
  std::vector<Query> cached_routes;
  for (const uint32_t i : cached) {
    cached_routes.push_back(pool[i]);
    cached_routes.back().gt_path = reference[i]->path.vertices;
  }
  const std::vector<l2r::WorldUpdateBatch> live_schedule =
      MakeUpdateSchedule(net, cached_routes, kRepairUpdates, run.Seed(31));
  const l2r::ServingRouter::Stats updates_before = ServeStats(stack);
  ApplyAll(stack, {live_schedule.begin(), live_schedule.end() - 1});
  {
    std::unordered_set<l2r::EdgeId> updated;
    for (auto b = live_schedule.begin(); b != live_schedule.end() - 1; ++b) {
      for (const l2r::EdgeDelta& delta : b->deltas) updated.insert(delta.edge);
      updated.insert(b->closures.begin(), b->closures.end());
    }
    std::vector<uint32_t> crossing;
    std::vector<uint32_t> other;
    for (const uint32_t i : cached) {
      const std::vector<l2r::VertexId>& path = reference[i]->path.vertices;
      bool crosses = false;
      for (size_t k = 1; k < path.size() && !crosses; ++k) {
        crosses = updated.count(net.FindEdge(path[k - 1], path[k])) > 0;
      }
      (crosses ? crossing : other).push_back(i);
    }
    run.Check(!crossing.empty(),
              "update audit: no cached route crosses an updated edge");
    l2r::Rng rng(run.Seed(60));
    std::vector<uint32_t> audit;
    for (std::vector<uint32_t>* keys : {&crossing, &other}) {
      for (size_t k = keys->size(); k > 1; --k) {
        std::swap((*keys)[k - 1], (*keys)[rng.Index(k)]);
      }
      for (const uint32_t i : *keys) {
        if (audit.size() < kStaleAuditKeys) audit.push_back(i);
      }
    }
    std::fprintf(stderr,
                 "[update audit] %zu keys, %zu of them on an updated edge\n",
                 audit.size(), std::min(audit.size(), crossing.size()));
    Reference cold(stack);
    uint64_t stale = 0;
    for (const uint32_t i : audit) {
      const Query& q = pool[i];
      const l2r::StreamResult served = stack.stream->SubmitWait(
          BatchQuery{q.s, q.d, q.departure_time});
      const Result<RouteResult> fresh = cold.Route(q);
      const bool ok = served.result.ok() && served.result->budget_degraded
                          ? ValidPath(net, served.result->path, q.s, q.d)
                          : SameResult(served.result, fresh);
      stale += !ok;
    }
    run.Check(stale == 0, "update audit: " + std::to_string(stale) +
                              " stale serves after live updates");
  }
  // Apply waits out the running repair pass; the pass the restore starts
  // is the last one.
  ApplyAll(stack, {live_schedule.back()});
  const uint64_t passes = RepairStats(stack).passes;
  const auto repair_deadline = Clock::now() + std::chrono::seconds(10);
  while (RepairStats(stack).passes == passes &&
         Clock::now() < repair_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  run.Check(RepairStats(stack).passes > passes,
            "the repair pass after the restore did not finish in 10 s");
  const l2r::RouteRepairer::BackgroundStats repair_after = RepairStats(stack);
  const l2r::ServingRouter::Stats updates_after = ServeStats(stack);
  run.Check(CaptureWorld(net, *stack.router) == world0,
            "world bytes differ from epoch 0 after the restore");

  // Reference rate.
  std::vector<std::optional<Result<RouteResult>>> first(pool.size());
  std::vector<std::atomic<uint8_t>> first_taken(pool.size());
  CallbackSink ref_sink = sink;
  ref_sink.first = &first;
  ref_sink.first_taken = &first_taken;
  const l2r::ServingRouter::Stats before = ServeStats(stack);
  const uint64_t calls_before = stack.service->calls();
  const Phase ref =
      RunOpenLoop(stack, requests(kRefQps, ref_seconds, 41), ref_sink);
  const l2r::ServingRouter::Stats after = ServeStats(stack);
  const uint64_t ref_calls = stack.service->calls() - calls_before;
  CheckPhase(run, ref, "reference phase");
  CheckServeStats(run, before, after, ref_calls, "reference phase");

  Metrics& e = out->e2e;
  const std::vector<double> lat = Latencies(ref);
  const uint64_t served = Served(ref);
  run.report.attempted += ref.samples.size();
  run.report.failed += ref.samples.size() - served;
  const double p50 = Percentile(lat, 0.5);
  const double p90 = WindowedPercentile(ref, kRefWindowUs, 0.9);
  const double p99 = WindowedPercentile(ref, kRefWindowUs, 0.99);
  run.Check(std::isfinite(p90),
            "reference phase: over 10% of requests failed, p90 undefined");
  e.Set("p50_us", p50, lat.size());
  e.Set("served_share",
        Share(static_cast<double>(served),
              static_cast<double>(ref.samples.size())),
        lat.size());
  e.Set("batch_qps", static_cast<double>(served) / ref_seconds, lat.size());
  out->cost = p50;
  uint64_t scored = 0;
  const auto [eq1, eq4] = Accuracy(net, pool, first, &scored);
  e.Set("accuracy_eq1_pct", eq1, scored);
  e.Set("accuracy_eq4_pct", eq4, scored);

  // Capacity ladder, traced pass only (its result is a layer metric, not
  // an end-to-end one; see kLadderSeconds): climb the coarse rates until
  // one fails, then bisect kBisections times between the last pass and
  // that failure. A rate that fails is tried once more before it counts
  // as failed: a stall of the host of a few tens of ms trips the overload
  // controller, whose shedding then fails the step at any rate. The
  // ladder stops early once kLadderSeconds are spent.
  // Spans cover the reference phase only: the ladder would add ~1M.
  Ladder ladder;
  if (traced) {
    Tracer::SetEnabled(false);
    const l2r::ServingRouter::Stats ladder_before = ServeStats(stack);
    const uint64_t ladder_calls_before = stack.service->calls();
    ladder.stream_before = StreamStats(stack);
    ladder.control_before = stack.controller->GetStats();
    uint64_t steps = 0;
    const auto ladder_start = Clock::now();
    const auto try_rate = [&](double rate) {
      const double spent =
          std::chrono::duration<double>(Clock::now() - ladder_start).count();
      if (spent + kStepSeconds > kLadderSeconds) {
        std::fprintf(stderr, "[ladder] out of time before %.0f qps\n", rate);
        return false;
      }
      const Phase step = RunOpenLoop(
          stack, requests(rate, kStepSeconds, 100 + steps++), sink);
      ladder.sent += step.samples.size();
      CheckPhase(run, step, "ladder step");
      const bool passes = RatePasses(step, rate);
      std::fprintf(stderr,
                   "[ladder] %.0f qps: %zu sent, windowed p99 %.0f us, %zu "
                   "outstanding after the last send, %s\n",
                   rate, step.samples.size(),
                   WindowedPercentile(step, kStepWindowUs, 0.99),
                   step.outstanding_at_end, passes ? "pass" : "fail");
      // Let the overload controller settle before the next step.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return passes;
    };
    const auto rate_holds = [&](double rate) {
      return try_rate(rate) || try_rate(rate);
    };
    double failed_rate = 0;
    for (const double rate : kLadderQps) {
      if (!rate_holds(rate)) {
        failed_rate = rate;
        break;
      }
      ladder.capacity = rate;
    }
    for (int k = 0; k < kBisections && failed_rate > 0 && ladder.capacity > 0;
         ++k) {
      const double rate = (ladder.capacity + failed_rate) / 2;
      if (rate_holds(rate)) {
        ladder.capacity = rate;
      } else {
        failed_rate = rate;
      }
    }
    const l2r::ServingRouter::Stats ladder_after = ServeStats(stack);
    Tracer::SetEnabled(true);
    CheckServeStats(run, ladder_before, ladder_after,
                    stack.service->calls() - ladder_calls_before, "ladder");
    ladder.stream_after = StreamStats(stack);
    ladder.control_after = stack.controller->GetStats();
  }

  stack.stream->Shutdown();
  const l2r::StreamRouter::Stats final_stats = StreamStats(stack);
  run.Check(final_stats.submitted == final_stats.completed +
                                         final_stats.shed +
                                         final_stats.failed_on_shutdown,
            "stream: submitted != completed + shed + failed_on_shutdown");
  run.Check(final_stats.rejected == 0, "stream: submits rejected");
  SetUpdateLayers(out->layers, TimeQuiescentUpdates(run, stack, world0));

  if (!traced) return;
  Metrics& m = out->layers;
  const std::vector<Span> spans = Tracer::Collect();
  const int64_t lo_ns = ref.base_us * 1000 + stack.clock_offset_ns;
  int64_t last_cb = ref.base_us;
  for (const Sample& s : ref.samples) last_cb = std::max(last_cb, s.callback);
  const int64_t hi_ns = last_cb * 1000 + stack.clock_offset_ns;
  SetServeAndCoreLayers(m, stack, pool, spans, lo_ns, hi_ns);
  SetServeStatLayers(m, before, after);
  // Stale-but-valid serves of the reference phase, which follows the
  // updates.
  SetStaleValidLayer(m, before, after);
  // One root span per served request of the reference phase, due time to
  // callback; its stream.submit span carries the same request id.
  for (size_t i = 0; i < ref.samples.size(); ++i) {
    const Sample& s = ref.samples[i];
    if (!s.accepted || !s.ok || s.shed) continue;
    Span span;
    span.name = SpanName::kRequest;
    span.request = i;
    span.start_ns = s.due * 1000 + stack.clock_offset_ns;
    span.end_ns = s.callback * 1000 + stack.clock_offset_ns;
    Tracer::Record(span);
  }
  std::vector<BatchWindow> batches;
  SetStreamLayers(m, ref, &batches, stack.clock_offset_ns);
  // Microsecond clock stamps bound the batch windows: 2 us tolerance.
  std::map<uint64_t, int64_t> first_call_ns;
  SetBatchLayers(run, m, batches,
                 SpansIn(spans, SpanName::kServeRoute, lo_ns, hi_ns),
                 stack.route_threads, 2000, &first_call_ns);
  ReconcileLatency(run, ref, first_call_ns, stack.clock_offset_ns);
  uint64_t completed = 0;
  for (const Sample& s : ref.samples) completed += s.accepted && !s.shed;
  m.Set("stream.dedup_share",
        completed == 0 ? 0
                       : 1.0 - static_cast<double>(ref_calls) /
                                   static_cast<double>(completed));
  for (const l2r::QueryClass c :
       {l2r::QueryClass::kInteractive, l2r::QueryClass::kBulk}) {
    const size_t i = static_cast<size_t>(c);
    m.Set(std::string("overload.shed_share.") + l2r::QueryClassName(c),
          Share(static_cast<double>(ladder.stream_after.shed_by_class[i] -
                                    ladder.stream_before.shed_by_class[i]),
                static_cast<double>(
                    ladder.stream_after.submitted_by_class[i] -
                    ladder.stream_before.submitted_by_class[i])));
  }
  m.Set("overload.level_raises",
        static_cast<double>(ladder.control_after.level_raises -
                            ladder.control_before.level_raises));
  m.Set("stream.capacity_qps", ladder.capacity, ladder.sent);
  m.Set("latency.p90_us", std::isfinite(p90) ? p90 : 0, lat.size());
  // Over 1% of the requests failed or were shed: no p99 to report.
  m.Set("latency.p99_us", std::isfinite(p99) ? p99 : 0, lat.size());
  m.Set("world.invalidated_per_update",
        static_cast<double>(updates_after.cache.invalidated -
                            updates_before.cache.invalidated) /
            static_cast<double>(live_schedule.size()));
  SetRepairLayers(m, repair_before, repair_after);
}

// ------------------------------------------------------------------ run

void SetSetupLayers(Run& run, Metrics& m) {
  std::vector<double> setup, cluster, graph, learn, transfer, apply, nulls,
      b_share;
  for (const SetupRecord& rec : run.setups) {
    double c = 0, g = 0, l = 0, t = 0, a = 0, nr = 0;
    int periods = 0;
    for (const auto& p : rec.report.period) {
      c += p.cluster_seconds;
      g += p.region_graph_seconds;
      l += p.learn_seconds;
      t += p.transfer_seconds;
      a += p.apply_seconds;
      if (p.num_regions > 0) {
        nr += p.transfer_null_rate;
        ++periods;
      }
    }
    setup.push_back(rec.seconds);
    cluster.push_back(c);
    graph.push_back(g);
    learn.push_back(l);
    transfer.push_back(t);
    apply.push_back(a);
    nulls.push_back(periods == 0 ? 0 : nr / periods);
    b_share.push_back(rec.b_edge_share);
  }
  const uint64_t k = run.setups.size();
  m.Set("region.cluster_s", Mean(cluster), k);
  m.Set("region.graph_s", Mean(graph), k);
  m.Set("pref.learn_s", Mean(learn), k);
  m.Set("transfer.transfer_s", Mean(transfer), k);
  m.Set("transfer.apply_s", Mean(apply), k);
  m.Set("setup.other_s",
        Mean(setup) - Mean(cluster) - Mean(graph) - Mean(learn) -
            Mean(transfer) - Mean(apply),
        k);
  m.Set("transfer.null_rate", Mean(nulls));
  m.Set("region.b_edge_share", Mean(b_share));
}

template <size_t N>
void Emit(Run& run, const Metrics& values, const MetricSpec (&specs)[N]) {
  for (const MetricSpec& spec : specs) {
    if (!values.Has(spec.name)) {
      run.Fail(std::string("metric not measured: ") + spec.name);
      continue;
    }
    const auto [value, samples] = values.Get(spec.name);
    run.report.metrics.push_back({spec.name, value, spec.unit, samples});
  }
}

}  // namespace

bool IsWorkload(const std::string& name) {
  for (const char* w : kWorkloads) {
    if (name == w) return true;
  }
  return false;
}

RunReport RunWorkload(const RunOptions& options) {
  RunReport report;
  std::unique_ptr<Dataset> data = LoadDataset(options.threads);
  Run run{options, *data, {}, {}, report};
  const bool cold = options.workload == "cold_batch";
  const FrontEnd front_end = cold ? FrontEnd::kBatch : FrontEnd::kStream;

  run.pool = MakeQueryPool(data->built.world, *data->model, data->spec.traj,
                           run.Seed(10),
                           cold ? kColdTrajectories : kZipfTrajectories,
                           options.threads);

  std::unique_ptr<Stack> stack;
  const StackSource fresh_stack = [&]() -> Stack& {
    stack.reset();
    stack = Setup(run, front_end);
    return *stack;
  };
  // One pass after `setups` setups; cold_batch measures between them.
  const auto run_pass = [&](int setups, bool traced, PassResult* out) {
    if (cold) {
      ColdBatchPass(run, fresh_stack, setups, traced, out);
    } else {
      for (int k = 0; k < setups; ++k) fresh_stack();
      ZipfStreamPass(run, *stack, traced, out);
    }
  };

  auto param = [&](const char* k, const std::string& v) {
    report.params.emplace_back(k, v);
  };
  param("dataset", data->spec.name);
  param("dataset_scale", std::to_string(kDatasetScale));
  param("pool_queries", std::to_string(run.pool.size()));
  param("cache_bytes", std::to_string(kCacheBytes));
  param("fallback_budget_us", std::to_string(kFallbackBudgetUs));
  param("settles_per_us", std::to_string(kSettlesPerUs));
  if (cold) {
    param("batch_size", std::to_string(kColdBatch));
  } else {
    param("hot_keys", std::to_string(kHotKeys));
    param("cold_share", std::to_string(kColdShare));
    param("warmup_qps", std::to_string(kWarmupQps));
    param("reference_qps", std::to_string(kRefQps));
    param("bulk_share", std::to_string(kBulkShare));
    param("p99_limit_us", std::to_string(kLimitUs));
    param("ladder_step_seconds", std::to_string(kStepSeconds));
    param("ladder_seconds", std::to_string(kLadderSeconds));
  }

  if (!options.trace) {
    PassResult pass;
    run_pass(kSetups, false, &pass);
    param("route_threads", std::to_string(stack->route_threads));
    std::vector<double> seconds;
    for (const SetupRecord& rec : run.setups) seconds.push_back(rec.seconds);
    pass.e2e.Set("setup_s", Median(seconds), seconds.size());
    pass.e2e.Set("peak_rss_mb", PeakRssMb());
    Emit(run, pass.e2e, kEndToEnd);
    return report;
  }

  PassResult plain;
  run_pass(1, false, &plain);
  param("route_threads", std::to_string(stack->route_threads));
  stack.reset();
  PassResult traced;
  Tracer::SetEnabled(true);
  run_pass(1, true, &traced);
  stack.reset();
  Tracer::SetEnabled(false);
  SetSetupLayers(run, traced.layers);
  traced.layers.Set("trace.overhead", Share(traced.cost, plain.cost));
  if (!options.spans_out.empty() &&
      !Tracer::WriteTsv(Tracer::Collect(), options.spans_out)) {
    run.Fail("cannot write spans to " + options.spans_out);
  }
  Emit(run, traced.layers, kPerLayer);
  return report;
}

}  // namespace perfbench
