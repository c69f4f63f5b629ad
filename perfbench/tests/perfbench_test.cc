// Tests of the benchmark's own code: seeded inputs, percentile and
// sample-count rules, span self-time arithmetic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>

#include "inputs.h"
#include "stats.h"
#include "trace.h"
#include "eval/datasets.h"

namespace perfbench {
namespace {

// A small world and driver model shared by the input tests.
struct Fixture {
  l2r::DatasetSpec spec = l2r::CityDataset(0.05);
  std::unique_ptr<l2r::GeneratedNetwork> world;
  std::unique_ptr<l2r::DriverModel> model;

  Fixture() {
    auto built = l2r::GenerateNetwork(spec.network);
    EXPECT_TRUE(built.ok());
    world = std::make_unique<l2r::GeneratedNetwork>(std::move(built).value());
    model = std::make_unique<l2r::DriverModel>(world.get(),
                                               spec.network.seed ^ 0xABCDEF);
  }
};

Fixture& Shared() {
  static Fixture fixture;
  return fixture;
}

bool SameBatch(const l2r::WorldUpdateBatch& a,
               const l2r::WorldUpdateBatch& b) {
  if (a.deltas.size() != b.deltas.size()) return false;
  for (size_t i = 0; i < a.deltas.size(); ++i) {
    if (a.deltas[i].edge != b.deltas[i].edge ||
        a.deltas[i].speed_scale != b.deltas[i].speed_scale) {
      return false;
    }
  }
  return a.closures == b.closures && a.reopenings == b.reopenings &&
         a.period_transition == b.period_transition;
}

bool SameSchedule(const std::vector<l2r::WorldUpdateBatch>& a,
                  const std::vector<l2r::WorldUpdateBatch>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBatch(a[i], b[i])) return false;
  }
  return true;
}

bool SamePool(const std::vector<Query>& a, const std::vector<Query>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].s != b[i].s || a[i].d != b[i].d ||
        a[i].departure_time != b[i].departure_time ||
        a[i].gt_path != b[i].gt_path) {
      return false;
    }
  }
  return true;
}

TEST(InputsTest, SameSeedSameQueryPoolOtherSeedOther) {
  Fixture& f = Shared();
  const auto a = MakeQueryPool(*f.world, *f.model, f.spec.traj, 7, 300, 2);
  const auto b = MakeQueryPool(*f.world, *f.model, f.spec.traj, 7, 300, 1);
  const auto c = MakeQueryPool(*f.world, *f.model, f.spec.traj, 8, 300, 2);
  ASSERT_GT(a.size(), 100u);
  EXPECT_TRUE(SamePool(a, b));  // thread count does not matter
  EXPECT_FALSE(SamePool(a, c));
  for (const Query& q : a) {
    EXPECT_EQ(q.gt_path.front(), q.s);
    EXPECT_EQ(q.gt_path.back(), q.d);
  }
}

TEST(InputsTest, PoolKeysAreDistinct) {
  Fixture& f = Shared();
  const auto pool = MakeQueryPool(*f.world, *f.model, f.spec.traj, 3, 400, 2);
  std::set<uint64_t> keys;
  for (const Query& q : pool) {
    EXPECT_TRUE(keys.insert(PackKey(q.s, q.d, q.period)).second);
  }
}

std::vector<Request> Stream(const ZipfSampler& zipf, uint64_t seed,
                            size_t* cursor) {
  TrafficMix mix;
  mix.hot = &zipf;
  mix.hot_size = 500;
  mix.cold_size = 2000;
  mix.miss_share = 0.2;
  mix.bulk_share = 0.3;
  return OpenLoopRequests(mix, 8000, 200'000, seed, cursor);
}

TEST(InputsTest, SameSeedSameRequestStreamOtherSeedOther) {
  const ZipfSampler zipf(500, 1.0, 9);
  size_t ca = 0, cb = 0, cc = 0;
  const auto a = Stream(zipf, 11, &ca);
  const auto b = Stream(zipf, 11, &cb);
  const auto c = Stream(zipf, 12, &cc);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // ~1600 Poisson arrivals, due times sorted inside the phase.
  EXPECT_GT(a.size(), 1400u);
  EXPECT_LT(a.size(), 1800u);
  for (size_t i = 1; i < a.size(); ++i) EXPECT_LE(a[i - 1].due_us, a[i].due_us);
  EXPECT_LT(a.back().due_us, 200'000);
  size_t bulk = 0;
  size_t cold = 0;
  for (const Request& r : a) {
    EXPECT_LT(r.query, 2500u);
    bulk += r.cls == l2r::QueryClass::kBulk;
    if (r.query >= 500) {
      // Cold keys come in order, each once.
      EXPECT_EQ(r.query, 500 + cold);
      ++cold;
    }
  }
  EXPECT_EQ(cold, ca);
  EXPECT_NEAR(static_cast<double>(bulk) / a.size(), 0.3, 0.05);
  EXPECT_NEAR(static_cast<double>(cold) / a.size(), 0.2, 0.05);
  // The next phase continues the cold pool where this one stopped.
  const auto next = Stream(zipf, 13, &ca);
  for (const Request& r : next) {
    if (r.query >= 500) {
      EXPECT_EQ(r.query, 500 + cold);
      break;
    }
  }
}

TEST(InputsTest, ZipfSamplerIsSkewedAndSeeded) {
  const ZipfSampler zipf(1000, 1.0, 5);
  l2r::Rng rng(1);
  std::vector<size_t> counts(1000, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Draw(rng)];
  const size_t top = static_cast<size_t>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
  // Rank 1 of Zipf(1.0) over 1000 keys holds 1/H(1000) = 13% of draws.
  EXPECT_NEAR(static_cast<double>(counts[top]) / 20000, 0.134, 0.02);
  // The permutation (which key is hot) depends on the sampler's seed only.
  const ZipfSampler same(1000, 1.0, 5);
  const ZipfSampler other(1000, 1.0, 6);
  l2r::Rng r1(2), r2(2), r3(2);
  std::vector<uint32_t> a, b, c;
  for (int i = 0; i < 50; ++i) {
    a.push_back(zipf.Draw(r1));
    b.push_back(same.Draw(r2));
    c.push_back(other.Draw(r3));
  }
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(InputsTest, SameSeedSameUpdateScheduleOtherSeedOther) {
  Fixture& f = Shared();
  const auto pool = MakeQueryPool(*f.world, *f.model, f.spec.traj, 7, 300, 2);
  const auto a = MakeUpdateSchedule(f.world->net, pool, 40, 21);
  const auto b = MakeUpdateSchedule(f.world->net, pool, 40, 21);
  const auto c = MakeUpdateSchedule(f.world->net, pool, 40, 22);
  ASSERT_EQ(a.size(), 41u);
  EXPECT_TRUE(SameSchedule(a, b));
  EXPECT_FALSE(SameSchedule(a, c));
  // Every slowdown is undone and every closure reopened by the end.
  std::map<l2r::EdgeId, double> scale;
  std::map<l2r::EdgeId, int> closed;
  size_t transitions = 0;
  for (const auto& batch : a) {
    for (const auto& d : batch.deltas) {
      scale[d.edge] += std::log2(d.speed_scale);
    }
    for (const auto e : batch.closures) ++closed[e];
    for (const auto e : batch.reopenings) --closed[e];
    transitions += batch.period_transition.has_value();
  }
  for (const auto& [e, s] : scale) EXPECT_EQ(s, 0) << e;
  for (const auto& [e, c] : closed) EXPECT_EQ(c, 0) << e;
  EXPECT_EQ(transitions, 2u);
}

TEST(StatsTest, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 0.5), 50);
  EXPECT_EQ(Percentile(v, 0.9), 90);
  EXPECT_EQ(Percentile(v, 0.99), 99);
  EXPECT_EQ(Percentile(v, 1.0), 100);
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Percentile({7}, 0.99), 7);
  // A failed request is +infinity and misses every limit.
  v[0] = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Percentile(v, 1.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(Percentile(v, 0.99), 99);
}

TEST(StatsTest, TenSamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(SamplesBeyond(99, 0.9), 9u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesNeeded(0.9, 10), 100u);
  EXPECT_EQ(SamplesNeeded(0.99, 10), 1000u);
  EXPECT_EQ(SamplesNeeded(0.5, 10), 20u);
  EXPECT_TRUE(TailSupported(100, 0.9));
  EXPECT_FALSE(TailSupported(99, 0.9));
  EXPECT_FALSE(TailSupported(999, 0.99));
  EXPECT_TRUE(TailSupported(1000, 0.99));
}

TEST(StatsTest, ChunkedPercentileIgnoresOneBurst) {
  // Three chunks of 100; the middle one holds a burst of slow samples.
  std::vector<double> v;
  for (int c = 0; c < 3; ++c) {
    for (int i = 1; i <= 100; ++i) v.push_back(c == 1 && i > 80 ? 1000 : i);
  }
  EXPECT_EQ(Percentile(v, 0.99), 1000);
  EXPECT_EQ(ChunkedPercentile(v, 100, 0.99), 99);
  // A trailing partial chunk is dropped; too few samples fall back to the
  // plain percentile.
  v.push_back(5000);
  EXPECT_EQ(ChunkedPercentile(v, 100, 0.99), 99);
  EXPECT_EQ(ChunkedPercentile(v, 200, 0.99), Percentile(v, 0.99));
}

TEST(StatsTest, MedianAndMean) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Mean({1, 2, 3, 4}), 2.5);
}

Span At(int64_t start, int64_t end) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(TraceTest, SelfTimeSubtractsChildUnion) {
  const Span parent = At(100, 200);
  EXPECT_EQ(SelfTimeNs(parent, {}), 100);
  EXPECT_EQ(SelfTimeNs(parent, {At(110, 120), At(150, 170)}), 70);
  // Overlapping children count once.
  EXPECT_EQ(SelfTimeNs(parent, {At(110, 140), At(130, 160)}), 50);
  // Children are clipped to the parent.
  EXPECT_EQ(SelfTimeNs(parent, {At(50, 120), At(190, 250)}), 70);
  EXPECT_EQ(SelfTimeNs(parent, {At(0, 50), At(200, 300)}), 100);
  EXPECT_EQ(SelfTimeNs(parent, {At(0, 300)}), 0);
}

TEST(TraceTest, ScopedSpansNestAndRecordOnlyWhenEnabled) {
  Tracer::Clear();
  { ScopedSpan off(SpanName::kServeRoute, 1); }
  EXPECT_TRUE(Tracer::Collect().empty());
  Tracer::SetEnabled(true);
  {
    ScopedSpan outer(SpanName::kRouteAll, 1);
    ScopedSpan inner(SpanName::kServeRoute, 2);
    inner.set_args(5, 6, kSpanCacheHit);
  }
  Tracer::SetEnabled(false);
  const std::vector<Span> spans = Tracer::Collect();
  ASSERT_EQ(spans.size(), 2u);
  const bool outer_first = spans[0].name == SpanName::kRouteAll;
  const Span& outer = outer_first ? spans[0] : spans[1];
  const Span& inner = outer_first ? spans[1] : spans[0];
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.request, 2u);
  EXPECT_EQ(inner.arg0, 5);
  EXPECT_EQ(inner.flags, kSpanCacheHit);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.end_ns, inner.end_ns);
  EXPECT_GE(SelfTimeNs(outer, {inner}), 0);
  Tracer::Clear();
}

}  // namespace
}  // namespace perfbench
