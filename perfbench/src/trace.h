#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// What a span timed. Spans are recorded only in the benchmark's own
/// code, around calls into the program's public functions.
enum class SpanName : uint16_t {
  kRequest,           ///< one stream request, due time -> callback
  kBuild,             ///< L2RRouter::Build
  kCoreRoute,         ///< L2RRouter::Route (replay of a missed key)
  kRouteAll,          ///< BatchRouter::RouteAll
  kServeRoute,        ///< ServingRouter::Route (via the bench decorator)
  kServeGetStats,     ///< ServingRouter::GetStats
  kStreamSubmit,      ///< StreamRouter::Submit
  kStreamGetStats,    ///< StreamRouter::GetStats
  kWorldApply,        ///< WorldUpdateChannel::Apply
  kWorldAcquireRead,  ///< WorldUpdateChannel::AcquireRead (pin wait)
  kRepairGetStats,    ///< RouteRepairer::GetBackgroundStats
};

const char* SpanNameString(SpanName name);

/// One timed interval. `request` ties the spans of one request together
/// (a request index, or a packed query key for service calls); `arg0` and
/// `arg1` carry per-name payload (service calls: settles, pinned epoch).
struct Span {
  SpanName name = SpanName::kRequest;
  uint16_t thread = 0;
  uint32_t flags = 0;  ///< per-name bits (service calls: kSpanCacheHit)
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t arg0 = 0;
  int64_t arg1 = 0;
};

/// Span::flags bit of a service call answered from the route cache.
inline constexpr uint32_t kSpanCacheHit = 1;

/// Steady-clock nanoseconds (the span time base).
int64_t NowNs();

/// Process-wide in-memory span recorder. Each thread appends to its own
/// buffer (no sharing on the hot path); buffers are registered once per
/// thread and outlive it. Off by default: a disabled ScopedSpan costs one
/// relaxed load.
class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool Enabled();

  /// Appends a finished span on the calling thread, giving it an id.
  static void Record(Span span);

  /// Every span recorded so far, ordered by start time. Call only while
  /// no thread is recording.
  static std::vector<Span> Collect();
  static void Clear();

  /// Writes `spans` as tab-separated lines (name, id, parent, request,
  /// thread, flags, start_ns, end_ns, arg0, arg1). Returns false on I/O error.
  static bool WriteTsv(const std::vector<Span>& spans,
                       const std::string& path);
};

/// RAII span around one call: records [construction, destruction) on the
/// calling thread with the enclosing ScopedSpan as parent.
class ScopedSpan {
 public:
  ScopedSpan(SpanName name, uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_args(int64_t a0, int64_t a1, uint32_t flags = 0) {
    span_.arg0 = a0;
    span_.arg1 = a1;
    span_.flags = flags;
  }

 private:
  bool active_;
  Span span_;
};

/// Self time of `span`: its duration minus the part of it that the union
/// of `children` covers (children are clipped to the span; overlapping
/// children count once).
int64_t SelfTimeNs(const Span& span, const std::vector<Span>& children);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
