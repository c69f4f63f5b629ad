#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/serve_hooks.h"
#include "roadnet/world.h"
#include "traj/driver_model.h"
#include "traj/generator.h"
#include "world/update_channel.h"

namespace perfbench {

/// One distinct routing query with the path a simulated driver actually
/// took (the ground truth the served route is scored against).
struct Query {
  l2r::VertexId s = l2r::kInvalidVertex;
  l2r::VertexId d = l2r::kInvalidVertex;
  double departure_time = 0;
  uint8_t period = 0;  ///< PeriodOf(departure_time), the key's period
  std::vector<l2r::VertexId> gt_path;
};

/// (s, d, period) packed into one word: the identity the serving stack
/// dedups and caches on. Requires vertex ids below 2^31.
inline uint64_t PackKey(l2r::VertexId s, l2r::VertexId d, uint8_t period) {
  return static_cast<uint64_t>(s) << 33 | static_cast<uint64_t>(d) << 1 |
         (period & 1u);
}

/// One open-loop request: which pool query, when it is due (microseconds
/// after the phase starts) and its priority class.
struct Request {
  uint32_t query = 0;
  int64_t due_us = 0;
  l2r::QueryClass cls = l2r::QueryClass::kInteractive;

  bool operator==(const Request&) const = default;
};

/// Derives an independent stream seed from the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Generates `trajectories` trips with the repo's TrajectoryGenerator on
/// the given world and driver model (the dataset's generator config, run
/// with several seeds derived from `seed` and interleaved) and keeps the
/// first trip of every distinct (s, d, period) key.
std::vector<Query> MakeQueryPool(const l2r::GeneratedNetwork& world,
                                 const l2r::DriverModel& model,
                                 l2r::TrajectoryGenConfig config,
                                 uint64_t seed, size_t trajectories,
                                 unsigned threads);

/// Zipf(exponent) over [0, n): rank r has weight 1/(r+1)^exponent and
/// ranks map to indices through a permutation fixed by `seed`, so every
/// phase of a run shares one hot set.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent, uint64_t seed);
  uint32_t Draw(l2r::Rng& rng) const;

 private:
  std::vector<uint32_t> rank_to_index_;
  std::vector<double> cdf_;
};

/// The traffic of an open-loop phase: a `miss_share` of requests take the
/// next key of the cold pool (indices [hot, hot + cold), in order and
/// wrapping, so each is new to a cache smaller than that pool), the rest
/// are Zipf draws over the hot pool [0, hot); `bulk_share` of requests
/// are in the bulk class.
struct TrafficMix {
  const ZipfSampler* hot = nullptr;
  size_t hot_size = 0;
  size_t cold_size = 0;
  double miss_share = 0;
  double bulk_share = 0;
};

/// Poisson arrivals at `rate_qps` over `duration_us`. `*cold_cursor`
/// carries the cold-pool position from one phase to the next.
std::vector<Request> OpenLoopRequests(const TrafficMix& mix, double rate_qps,
                                      int64_t duration_us, uint64_t seed,
                                      size_t* cold_cursor);

/// A seeded schedule of `count` update batches on edges that pool routes
/// ride, followed by one batch restoring every change still active:
///  - incidents: two edges slowed x0.5 (cost-increasing: selective
///    invalidation);
///  - closures: one edge closed, chosen so its tail still reaches its
///    head (no query becomes unroutable);
///  - a restore as batch 7 of every 16: active incidents x2.0 and closed
///    edges reopened (cost-decreasing: wholesale invalidation);
///  - a period transition as batch 15 of every 16 (wholesale).
/// Power-of-two scales make the final restore reproduce the epoch-0
/// speeds bit for bit.
std::vector<l2r::WorldUpdateBatch> MakeUpdateSchedule(
    const l2r::RoadNetwork& net, const std::vector<Query>& pool,
    size_t count, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
