#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/check.h"
#include "common/hash.h"

namespace perfbench {

using l2r::EdgeId;
using l2r::VertexId;

namespace {

// Trip generations mixed into one pool. Each generator seed draws its own
// demand layout (hotspots), which moves mean route cost and accuracy by
// several percent; mixing 32 keeps that out of the seed-to-seed spread.
constexpr size_t kPoolLayouts = 32;
}  // namespace

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return l2r::Mix64(seed ^ l2r::Mix64(stream + 0x9e3779b97f4a7c15ULL));
}

std::vector<Query> MakeQueryPool(const l2r::GeneratedNetwork& world,
                                 const l2r::DriverModel& model,
                                 l2r::TrajectoryGenConfig config,
                                 uint64_t seed, size_t trajectories,
                                 unsigned threads) {
  config.num_trajectories = (trajectories + kPoolLayouts - 1) / kPoolLayouts;
  config.num_threads = threads;
  config.emit_gps = false;
  const l2r::TrajectoryGenerator generator(&world, &model);
  std::vector<std::vector<l2r::MatchedTrajectory>> parts;
  for (size_t k = 0; k < kPoolLayouts; ++k) {
    config.seed = SubSeed(seed, 1000 + k);
    auto generated = generator.Generate(config);
    L2R_CHECK(generated.ok());
    parts.push_back(std::move(generated->matched));
  }
  // Round-robin, so every prefix of the pool mixes all layouts.
  std::vector<l2r::MatchedTrajectory> trips;
  for (size_t i = 0; i < config.num_trajectories; ++i) {
    for (auto& part : parts) {
      if (i < part.size()) trips.push_back(std::move(part[i]));
    }
  }
  std::vector<Query> pool;
  std::unordered_set<uint64_t> seen;
  for (l2r::MatchedTrajectory& t : trips) {
    if (t.path.size() < 2 || t.path.front() == t.path.back()) continue;
    Query q;
    q.s = t.path.front();
    q.d = t.path.back();
    L2R_CHECK(q.s < (1u << 31) && q.d < (1u << 31));
    q.departure_time = t.departure_time;
    q.period = static_cast<uint8_t>(l2r::PeriodOf(t.departure_time));
    if (!seen.insert(PackKey(q.s, q.d, q.period)).second) continue;
    q.gt_path = std::move(t.path);
    pool.push_back(std::move(q));
  }
  return pool;
}

ZipfSampler::ZipfSampler(size_t n, double exponent, uint64_t seed)
    : rank_to_index_(n), cdf_(n) {
  L2R_CHECK(n > 0);
  for (size_t i = 0; i < n; ++i) rank_to_index_[i] = static_cast<uint32_t>(i);
  l2r::Rng rng(seed);
  rng.Shuffle(&rank_to_index_);
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += std::pow(static_cast<double>(r + 1), -exponent);
    cdf_[r] = total;
  }
}

uint32_t ZipfSampler::Draw(l2r::Rng& rng) const {
  const double u = rng.NextDouble() * cdf_.back();
  const size_t r = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return rank_to_index_[std::min(r, cdf_.size() - 1)];
}

std::vector<Request> OpenLoopRequests(const TrafficMix& mix, double rate_qps,
                                      int64_t duration_us, uint64_t seed,
                                      size_t* cold_cursor) {
  L2R_CHECK(mix.hot != nullptr && mix.cold_size > 0);
  l2r::Rng rng(seed);
  std::vector<Request> requests;
  const double per_us = rate_qps / 1e6;
  double t = 0;
  while (true) {
    t += rng.Exponential(per_us);
    if (t >= static_cast<double>(duration_us)) break;
    Request r;
    r.due_us = static_cast<int64_t>(t);
    r.cls = rng.Bernoulli(mix.bulk_share) ? l2r::QueryClass::kBulk
                                          : l2r::QueryClass::kInteractive;
    if (rng.Bernoulli(mix.miss_share)) {
      r.query = static_cast<uint32_t>(mix.hot_size +
                                      (*cold_cursor)++ % mix.cold_size);
    } else {
      r.query = mix.hot->Draw(rng);
    }
    requests.push_back(r);
  }
  return requests;
}

namespace {

// True when `to` is reachable from `from` with every edge in `closed`
// removed.
bool Reachable(const l2r::RoadNetwork& net, VertexId from, VertexId to,
               const std::unordered_set<EdgeId>& closed) {
  std::vector<uint8_t> seen(net.NumVertices(), 0);
  std::vector<VertexId> stack{from};
  seen[from] = 1;
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    if (v == to) return true;
    for (const EdgeId e : net.OutEdges(v)) {
      if (closed.count(e) != 0) continue;
      const VertexId w = net.edge(e).to;
      if (seen[w] == 0) {
        seen[w] = 1;
        stack.push_back(w);
      }
    }
  }
  return false;
}

}  // namespace

std::vector<l2r::WorldUpdateBatch> MakeUpdateSchedule(
    const l2r::RoadNetwork& net, const std::vector<Query>& pool,
    size_t count, uint64_t seed) {
  L2R_CHECK(!pool.empty());
  l2r::Rng rng(SubSeed(seed, 3));
  std::unordered_set<EdgeId> slowed;
  std::unordered_set<EdgeId> closed;
  // An interior edge of a random pool route that no active change holds.
  auto pick_edge = [&]() {
    while (true) {
      const std::vector<VertexId>& path =
          pool[rng.Index(pool.size())].gt_path;
      if (path.size() < 3) continue;
      const size_t i = 1 + rng.Index(path.size() - 2);
      const EdgeId e = net.FindEdge(path[i - 1], path[i]);
      if (e == l2r::kInvalidEdge || slowed.count(e) || closed.count(e)) {
        continue;
      }
      return e;
    }
  };
  auto restore = [&]() {
    l2r::WorldUpdateBatch batch;
    std::vector<EdgeId> s(slowed.begin(), slowed.end());
    std::vector<EdgeId> c(closed.begin(), closed.end());
    std::sort(s.begin(), s.end());
    std::sort(c.begin(), c.end());
    for (const EdgeId e : s) batch.deltas.push_back({e, 2.0});
    batch.reopenings = std::move(c);
    slowed.clear();
    closed.clear();
    return batch;
  };

  std::vector<l2r::WorldUpdateBatch> schedule;
  schedule.reserve(count + 1);
  bool peak_next = true;
  for (size_t k = 0; k < count; ++k) {
    l2r::WorldUpdateBatch batch;
    if (k % 16 == 15) {
      batch.period_transition =
          peak_next ? l2r::TimePeriod::kPeak : l2r::TimePeriod::kOffPeak;
      peak_next = !peak_next;
    } else if (k % 8 == 7) {
      batch = restore();
    } else if (k % 8 == 2 || k % 8 == 6) {
      while (true) {
        const EdgeId e = pick_edge();
        closed.insert(e);
        if (Reachable(net, net.edge(e).from, net.edge(e).to, closed)) {
          batch.closures.push_back(e);
          break;
        }
        closed.erase(e);
      }
    } else {
      for (int i = 0; i < 2; ++i) {
        const EdgeId e = pick_edge();
        slowed.insert(e);
        batch.deltas.push_back({e, 0.5});
      }
    }
    schedule.push_back(std::move(batch));
  }
  schedule.push_back(restore());
  return schedule;
}

}  // namespace perfbench
