#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

struct ThreadBuffer {
  uint16_t thread = 0;
  uint64_t next_local = 0;
  std::vector<uint64_t> open;  ///< ids of open ScopedSpans, innermost last
  std::vector<Span> spans;
};

std::atomic<bool> g_enabled{false};

std::mutex& RegistryMutex() {
  static std::mutex mu;
  return mu;
}

// Owned by the registry so buffers outlive the threads that filled them.
std::vector<std::unique_ptr<ThreadBuffer>>& Registry() {
  static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  return buffers;
}

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    auto owned = std::make_unique<ThreadBuffer>();
    owned->thread = static_cast<uint16_t>(Registry().size());
    owned->spans.reserve(1 << 14);
    buffer = owned.get();
    Registry().push_back(std::move(owned));
  }
  return *buffer;
}

uint64_t NextId(ThreadBuffer& buffer) {
  return (static_cast<uint64_t>(buffer.thread) + 1) << 40 |
         ++buffer.next_local;
}

}  // namespace

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kRequest: return "request";
    case SpanName::kBuild: return "core.build";
    case SpanName::kCoreRoute: return "core.route";
    case SpanName::kRouteAll: return "core.batch.route_all";
    case SpanName::kServeRoute: return "serve.route";
    case SpanName::kServeGetStats: return "serve.get_stats";
    case SpanName::kStreamSubmit: return "stream.submit";
    case SpanName::kStreamGetStats: return "stream.get_stats";
    case SpanName::kWorldApply: return "world.apply";
    case SpanName::kWorldAcquireRead: return "world.acquire_read";
    case SpanName::kRepairGetStats: return "world.repair.get_stats";
  }
  return "unknown";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::Record(Span span) {
  ThreadBuffer& buffer = LocalBuffer();
  span.id = NextId(buffer);
  span.thread = buffer.thread;
  buffer.spans.push_back(span);
}

std::vector<Span> Tracer::Collect() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(RegistryMutex());
  for (const auto& buffer : Registry()) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  for (const auto& buffer : Registry()) buffer->spans.clear();
}

bool Tracer::WriteTsv(const std::vector<Span>& spans,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "name\tid\tparent\trequest\tthread\tflags\tstart_ns\tend_ns\t"
               "arg0\targ1\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s\t%llu\t%llu\t%llu\t%u\t%u\t%lld\t%lld\t%lld\t%lld\n",
                 SpanNameString(s.name),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned>(s.thread), s.flags,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.arg0),
                 static_cast<long long>(s.arg1));
  }
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

ScopedSpan::ScopedSpan(SpanName name, uint64_t request)
    : active_(Tracer::Enabled()) {
  if (!active_) return;
  ThreadBuffer& buffer = LocalBuffer();
  span_.name = name;
  span_.request = request;
  span_.id = NextId(buffer);
  span_.parent = buffer.open.empty() ? 0 : buffer.open.back();
  buffer.open.push_back(span_.id);
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  ThreadBuffer& buffer = LocalBuffer();
  buffer.open.pop_back();
  span_.thread = buffer.thread;
  buffer.spans.push_back(span_);
}

int64_t SelfTimeNs(const Span& span, const std::vector<Span>& children) {
  std::vector<std::pair<int64_t, int64_t>> covered;
  covered.reserve(children.size());
  for (const Span& c : children) {
    const int64_t lo = std::max(c.start_ns, span.start_ns);
    const int64_t hi = std::min(c.end_ns, span.end_ns);
    if (lo < hi) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  int64_t union_ns = 0;
  int64_t run_lo = 0;
  int64_t run_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : covered) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) union_ns += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) union_ns += run_hi - run_lo;
  return (span.end_ns - span.start_ns) - union_ns;
}

}  // namespace perfbench
