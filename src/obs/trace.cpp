/// \file trace.cpp

#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>

namespace dominosyn::obs {

std::string_view span_cat_name(SpanCat cat) noexcept {
  switch (cat) {
    case SpanCat::kServer: return "server";
    case SpanCat::kFlow: return "flow";
    case SpanCat::kSearch: return "search";
    case SpanCat::kBatch: return "batch";
  }
  return "unknown";
}

#ifndef DOMINOSYN_NO_TRACING

// ---------------------------------------------------------------------------
// Collector.

namespace {

constexpr std::size_t kRingCapacity = 4096;  ///< events kept per thread
/// chrome_trace_json stays under the protocol's 1 MiB line cap: keep the
/// newest events whose rendered size fits in ~900 KiB.
constexpr std::size_t kDumpBudgetBytes = 900 * 1024;
constexpr std::size_t kDumpBytesPerEvent = 140;  ///< conservative estimate

std::uint64_t now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// A thread's bounded span buffer.  The owning thread pushes under the
/// per-ring mutex (uncontended except while a dump walks the rings); the
/// global registry keeps the ring alive past thread exit so late dumps still
/// see its spans.
struct ThreadRing {
  std::mutex mutex;
  std::uint32_t tid = 0;
  std::uint64_t pushed = 0;  ///< total events ever pushed
  std::array<TraceEvent, kRingCapacity> events;

  void push(const TraceEvent& event) {
    const std::lock_guard<std::mutex> lock(mutex);
    events[pushed % kRingCapacity] = event;
    ++pushed;
  }

  /// Events with sequence number >= mark still present in the ring.
  std::vector<TraceEvent> since(std::uint64_t mark) {
    const std::lock_guard<std::mutex> lock(mutex);
    const std::uint64_t oldest =
        pushed > kRingCapacity ? pushed - kRingCapacity : 0;
    std::vector<TraceEvent> out;
    for (std::uint64_t seq = std::max(mark, oldest); seq < pushed; ++seq)
      out.push_back(events[seq % kRingCapacity]);
    return out;
  }
};

struct Collector {
  std::atomic<bool> enabled{true};
  std::atomic<std::uint64_t> next_trace_id{1};
  std::atomic<std::uint32_t> next_tid{1};
  std::array<std::atomic<std::uint64_t>, kNumSpanCats> cat_counts{};

  std::mutex rings_mutex;
  std::vector<std::shared_ptr<ThreadRing>> rings;

  static Collector& instance() {
    static Collector collector;
    return collector;
  }
};

ThreadRing& thread_ring() {
  thread_local std::shared_ptr<ThreadRing> ring = [] {
    Collector& collector = Collector::instance();
    auto fresh = std::make_shared<ThreadRing>();
    fresh->tid = collector.next_tid.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(collector.rings_mutex);
    collector.rings.push_back(fresh);
    return fresh;
  }();
  return *ring;
}

thread_local std::uint64_t tls_trace_id = 0;

void json_escape_into(std::string& out, std::string_view text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.

void set_tracing_enabled(bool enabled) noexcept {
  Collector::instance().enabled.store(enabled, std::memory_order_relaxed);
}

bool tracing_enabled() noexcept {
  return Collector::instance().enabled.load(std::memory_order_relaxed);
}

std::uint64_t mint_trace_id() noexcept {
  return Collector::instance().next_trace_id.fetch_add(
      1, std::memory_order_relaxed);
}

std::uint64_t current_trace_id() noexcept { return tls_trace_id; }

TraceContext::TraceContext(std::uint64_t trace_id) noexcept
    : previous_(tls_trace_id) {
  tls_trace_id = trace_id;
}

TraceContext::~TraceContext() { tls_trace_id = previous_; }

TraceSpan::TraceSpan(const char* name, SpanCat cat) noexcept
    : name_(name), start_us_(0), cat_(cat), active_(false) {
  if (!tracing_enabled()) return;
  active_ = true;
  start_us_ = now_us();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  const std::uint64_t end_us = now_us();
  ThreadRing& ring = thread_ring();
  TraceEvent event;
  const std::size_t len =
      std::min(std::strlen(name_), sizeof(event.name) - 1);
  std::memcpy(event.name, name_, len);
  event.trace_id = tls_trace_id;
  event.start_us = start_us_;
  event.dur_us = end_us >= start_us_ ? end_us - start_us_ : 0;
  event.tid = ring.tid;
  event.cat = static_cast<std::uint8_t>(cat_);
  ring.push(event);
  Collector::instance()
      .cat_counts[static_cast<std::size_t>(cat_)]
      .fetch_add(1, std::memory_order_relaxed);
}

std::string chrome_trace_json() {
  Collector& collector = Collector::instance();

  std::vector<TraceEvent> all;
  {
    const std::lock_guard<std::mutex> lock(collector.rings_mutex);
    for (const auto& ring : collector.rings) {
      const std::vector<TraceEvent> events = ring->since(0);
      all.insert(all.end(), events.begin(), events.end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_us < b.start_us;
            });
  const std::size_t budget = kDumpBudgetBytes / kDumpBytesPerEvent;
  if (all.size() > budget)
    all.erase(all.begin(), all.end() - static_cast<std::ptrdiff_t>(budget));

  std::string out =
      "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"tid\":0,\"args\":{\"name\":\"dominod\"}}";
  for (const TraceEvent& event : all) {
    out += ",{\"name\":\"";
    json_escape_into(out, event.name);
    out += "\",\"cat\":\"";
    out += span_cat_name(
        static_cast<SpanCat>(event.cat < kNumSpanCats ? event.cat : 0));
    out += "\",\"ph\":\"X\",\"ts\":";
    out += std::to_string(event.start_us);
    out += ",\"dur\":";
    out += std::to_string(event.dur_us);
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(event.tid);
    out += ",\"args\":{\"trace_id\":";
    out += std::to_string(event.trace_id);
    out += "}}";
  }
  out += "]}";
  return out;
}

SpanCounts span_counts() noexcept {
  Collector& collector = Collector::instance();
  SpanCounts out{};
  for (std::size_t i = 0; i < kNumSpanCats; ++i)
    out[i] = collector.cat_counts[i].load(std::memory_order_relaxed);
  return out;
}

std::uint64_t total_spans() noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t count : span_counts()) total += count;
  return total;
}

void clear_events() {
  Collector& collector = Collector::instance();
  const std::lock_guard<std::mutex> lock(collector.rings_mutex);
  for (const auto& ring : collector.rings) {
    const std::lock_guard<std::mutex> ring_lock(ring->mutex);
    ring->pushed = 0;
  }
}

#endif  // DOMINOSYN_NO_TRACING

}  // namespace dominosyn::obs
