#include "stack.h"

#include "common/check.h"
#include "common/timer.h"
#include "trace.h"
#include "inputs.h"

namespace perfbench {

namespace {

// Facts about the query running on this thread, left by TimedWorldView
// for TracedService: the epoch it pinned, and how many LastDirtyEpoch
// checks the cache made (only a found entry is checked).
thread_local l2r::WorldEpoch tl_pinned_epoch = 0;
thread_local uint64_t tl_dirty_checks = 0;

}  // namespace

std::unique_ptr<Dataset> LoadDataset(unsigned threads) {
  auto data = std::make_unique<Dataset>();
  data->spec = l2r::CityDataset(kDatasetScale);
  data->spec.traj.num_threads = threads;
  auto built = l2r::BuildDataset(data->spec);
  L2R_CHECK(built.ok());
  data->built = std::move(built).value();
  // The same driver model BuildDataset drew the training trips from.
  data->model = std::make_unique<l2r::DriverModel>(
      &data->built.world, data->spec.network.seed ^ 0xABCDEF);
  return data;
}

l2r::WorldEpoch TimedWorldView::LastDirtyEpoch(int period_index,
                                               l2r::RegionId region) const {
  ++tl_dirty_checks;
  return inner_->LastDirtyEpoch(period_index, region);
}

l2r::WorldEpoch TimedWorldView::AcquireRead() {
  ScopedSpan span(SpanName::kWorldAcquireRead, 0);
  tl_pinned_epoch = inner_->AcquireRead();
  return tl_pinned_epoch;
}

l2r::Result<l2r::RouteResult> TracedService::Route(l2r::L2RQueryContext* ctx,
                                                   l2r::VertexId s,
                                                   l2r::VertexId d,
                                                   double departure_time) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  if (!Tracer::Enabled()) return inner_->Route(ctx, s, d, departure_time);
  const uint8_t period = static_cast<uint8_t>(l2r::PeriodOf(departure_time));
  const uint64_t settles_before = ctx->TotalSettles();
  const uint64_t checks_before = tl_dirty_checks;
  ScopedSpan span(SpanName::kServeRoute, PackKey(s, d, period));
  l2r::Result<l2r::RouteResult> result =
      inner_->Route(ctx, s, d, departure_time);
  const int64_t settles =
      static_cast<int64_t>(ctx->TotalSettles() - settles_before);
  // Only a found cache entry is validated against the world, and a hit
  // computes nothing.
  const bool hit = tl_dirty_checks != checks_before && settles == 0;
  span.set_args(settles, static_cast<int64_t>(tl_pinned_epoch),
                hit ? kSpanCacheHit : 0);
  return result;
}

std::unique_ptr<Stack> BuildStack(Dataset& data, FrontEnd front_end,
                                  unsigned threads, double* setup_seconds) {
  std::vector<l2r::MatchedTrajectory> training = data.built.split.train;
  l2r::RoadNetwork* net = &data.built.world.net;
  auto stack = std::make_unique<Stack>();
  stack->clock_offset_ns = NowNs() - stack->clock.NowMicros() * 1000;

  l2r::Timer timer;
  l2r::L2ROptions options;
  options.num_threads = threads;
  options.transfer.num_threads = threads;
  options.apply.num_threads = threads;
  {
    ScopedSpan span(SpanName::kBuild, 0);
    auto router = l2r::L2RRouter::Build(net, std::move(training), options);
    L2R_CHECK(router.ok());
    stack->router = std::move(router).value();
  }
  stack->channel =
      std::make_unique<l2r::WorldUpdateChannel>(net, stack->router.get());
  stack->world = std::make_unique<TimedWorldView>(stack->channel.get());

  l2r::ServingRouterOptions serving;
  serving.route_cache.capacity_bytes = kCacheBytes;
  serving.deadline.fallback_budget_us = kFallbackBudgetUs;
  serving.deadline.settles_per_us = kSettlesPerUs;
  serving.world = stack->world.get();
  stack->serving =
      std::make_unique<l2r::ServingRouter>(stack->router.get(), serving);
  stack->service = std::make_unique<TracedService>(stack->serving.get());
  stack->repairer = std::make_unique<l2r::RouteRepairer>(stack->serving.get());

  if (front_end == FrontEnd::kBatch) {
    stack->route_threads = threads;
    l2r::BatchRouterOptions batch;
    batch.num_threads = threads;
    stack->batch =
        std::make_unique<l2r::BatchRouter>(stack->service.get(), batch);
  } else {
    stack->route_threads = threads > 2 ? threads - 1 : 1;
    stack->controller = std::make_unique<l2r::OverloadController>();
    l2r::StreamOptions stream;
    stream.num_threads = stack->route_threads;
    stream.num_drain_threads = 1;
    stream.dedup = true;
    stream.clock = &stack->clock;
    stream.overload = stack->controller.get();
    l2r::ServingRouter* serving_router = stack->serving.get();
    stream.budget_sink = [serving_router](double scale) {
      serving_router->SetBudgetScale(scale);
    };
    l2r::RouteRepairer* repairer = stack->repairer.get();
    stream.background_work = [repairer](unsigned worker,
                                        unsigned num_workers) {
      return repairer->BackgroundTick(worker, num_workers);
    };
    stack->stream =
        std::make_unique<l2r::StreamRouter>(stack->service.get(), stream);
  }
  *setup_seconds = timer.ElapsedSeconds();
  return stack;
}

WorldBytes CaptureWorld(const l2r::RoadNetwork& net,
                        const l2r::L2RRouter& router) {
  WorldBytes bytes;
  bytes.speeds.reserve(2 * net.NumEdges());
  bytes.closed.reserve(net.NumEdges());
  for (l2r::EdgeId e = 0; e < net.NumEdges(); ++e) {
    bytes.speeds.push_back(net.edge(e).speed_offpeak_kmh);
    bytes.speeds.push_back(net.edge(e).speed_peak_kmh);
    bytes.closed.push_back(net.EdgeClosed(e) ? 1 : 0);
  }
  for (int p = 0; p < l2r::kNumTimePeriods; ++p) {
    const l2r::WeightSet& ws = router.weights(static_cast<l2r::TimePeriod>(p));
    for (int f = 0; f < l2r::kNumCostFeatures; ++f) {
      const l2r::EdgeWeights& w = ws.Get(static_cast<l2r::CostFeature>(f));
      for (size_t e = 0; e < w.size(); ++e) bytes.weights.push_back(w[e]);
    }
  }
  return bytes;
}

bool ValidPath(const l2r::RoadNetwork& net, const l2r::Path& path,
               l2r::VertexId s, l2r::VertexId d) {
  if (path.vertices.empty() || path.vertices.front() != s ||
      path.vertices.back() != d) {
    return false;
  }
  for (size_t i = 1; i < path.vertices.size(); ++i) {
    if (net.FindEdge(path.vertices[i - 1], path.vertices[i]) ==
        l2r::kInvalidEdge) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
