#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <atomic>
#include <memory>
#include <vector>

#include "core/batch_router.h"
#include "core/l2r.h"
#include "eval/datasets.h"
#include "serve/clock.h"
#include "serve/overload_controller.h"
#include "serve/serving_router.h"
#include "serve/stream_router.h"
#include "world/route_repairer.h"
#include "world/update_channel.h"

namespace perfbench {

/// Dataset the router trains on: City(D2-like) at this scale, with the
/// preset's seeds.
inline constexpr double kDatasetScale = 0.3;
/// Route cache budget (the library default). The zipf_stream hot pool fits
/// in it; the cold_batch pool and the zipf_stream cold pool do not, so
/// cycling them misses on every lookup.
inline constexpr size_t kCacheBytes = 8u << 20;
/// Deadline budget of the preference-route fallback, converted to a
/// settle cap with a fixed settles-per-microsecond rate (never calibrated
/// against the clock, so degrade decisions and accuracy are
/// machine-independent).
inline constexpr double kFallbackBudgetUs = 25;
inline constexpr double kSettlesPerUs = 80;

/// The training data plus the world and driver model queries are drawn
/// from. `built.world.net` is the mutable world live updates change.
struct Dataset {
  l2r::DatasetSpec spec;
  l2r::BuiltDataset built;
  std::unique_ptr<l2r::DriverModel> model;
};

/// Generates the dataset with every thread count set to `threads`.
std::unique_ptr<Dataset> LoadDataset(unsigned threads);

/// WorldViewIface decorator owned by the benchmark: forwards to the
/// update channel, times AcquireRead as a span when tracing, and leaves
/// TracedService per-thread facts about the running query (the epoch it
/// pinned; whether the cache validated an entry, which only a found entry
/// is).
class TimedWorldView final : public l2r::WorldViewIface {
 public:
  explicit TimedWorldView(l2r::WorldUpdateChannel* inner) : inner_(inner) {}

  l2r::WorldEpoch CurrentEpoch() const override {
    return inner_->CurrentEpoch();
  }
  l2r::WorldEpoch LastDirtyEpoch(int period_index,
                                 l2r::RegionId region) const override;
  l2r::WorldEpoch AcquireRead() override;
  void ReleaseRead() override { inner_->ReleaseRead(); }
  int AddInvalidationListener(InvalidationListener fn) override {
    return inner_->AddInvalidationListener(std::move(fn));
  }
  void RemoveInvalidationListener(int token) override {
    inner_->RemoveInvalidationListener(token);
  }

 private:
  l2r::WorldUpdateChannel* inner_;
};

/// QueryService decorator owned by the benchmark, between the front-end
/// (BatchRouter / StreamRouter) and ServingRouter. Counts calls and, when
/// tracing, records a serve.route span per call carrying the settles it
/// spent, the epoch it pinned and whether the cache answered it.
class TracedService final : public l2r::QueryService {
 public:
  explicit TracedService(l2r::ServingRouter* inner) : inner_(inner) {}

  const l2r::L2RRouter& router() const override { return inner_->router(); }
  l2r::Result<l2r::RouteResult> Route(l2r::L2RQueryContext* ctx,
                                      l2r::VertexId s, l2r::VertexId d,
                                      double departure_time) override;
  l2r::EpochServeCounts GetEpochServeCounts() const override {
    return inner_->GetEpochServeCounts();
  }

  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  l2r::ServingRouter* inner_;
  std::atomic<uint64_t> calls_{0};
};

/// Which front-end the stack serves through.
enum class FrontEnd { kBatch, kStream };

/// The full serving stack every workload runs: L2RRouter, the live-update
/// channel behind the benchmark's world decorator, ServingRouter (cache,
/// stitch memo, single flight, fixed settle cap) behind the service
/// decorator, RouteRepairer, and either a BatchRouter or a StreamRouter
/// with an OverloadController. Members are destroyed in reverse order, so
/// the front-end stops before anything it calls.
struct Stack {
  l2r::SystemClock clock;
  /// steady-clock ns minus clock.NowMicros() * 1000 at construction.
  int64_t clock_offset_ns = 0;
  unsigned route_threads = 0;
  std::unique_ptr<l2r::L2RRouter> router;
  std::unique_ptr<l2r::WorldUpdateChannel> channel;
  std::unique_ptr<TimedWorldView> world;
  std::unique_ptr<l2r::ServingRouter> serving;
  std::unique_ptr<TracedService> service;
  std::unique_ptr<l2r::RouteRepairer> repairer;
  std::unique_ptr<l2r::OverloadController> controller;
  std::unique_ptr<l2r::BatchRouter> batch;
  std::unique_ptr<l2r::StreamRouter> stream;
};

/// Builds the router on a copy of the training set and the stack around
/// it. `*setup_seconds` receives the wall time of everything but the
/// copy. With kStream the generator and the drain thread each hold a
/// core, so the drain routes on threads - 1 workers; kBatch routes on
/// all `threads`.
std::unique_ptr<Stack> BuildStack(Dataset& data, FrontEnd front_end,
                                  unsigned threads, double* setup_seconds);

/// The world state live updates change: every edge's speeds and closure
/// flag and the router's per-period weight arrays.
struct WorldBytes {
  std::vector<float> speeds;
  std::vector<uint8_t> closed;
  std::vector<double> weights;

  bool operator==(const WorldBytes&) const = default;
};
WorldBytes CaptureWorld(const l2r::RoadNetwork& net,
                        const l2r::L2RRouter& router);

/// True when `path` runs from s to d over edges of `net`.
bool ValidPath(const l2r::RoadNetwork& net, const l2r::Path& path,
               l2r::VertexId s, l2r::VertexId d);

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
