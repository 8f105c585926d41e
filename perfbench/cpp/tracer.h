// In-memory spans around the benchmark's calls into each layer.
//
// Only the traced run installs a Tracer; with none installed a SpanScope is a
// load and a branch. The first span a thread opens with no span open becomes
// the root of a new op, and every span below it carries that op's id. Each
// span records its wall duration and its self time (duration minus the part
// its child spans cover). Spans stay in per-thread buffers until the run
// ends, when WriteJsonl writes them out and ByLayer sums them per layer.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  uint64_t op = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 for an op's root span
  const char* layer = "";
  const char* name = "";
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  int64_t self_ns = 0;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The tracer SpanScopes record into (nullptr = tracing off).
  static void Install(Tracer* tracer);
  static Tracer* Active();

  struct LayerTime {
    double self_us = 0;
    double total_us = 0;
    uint64_t spans = 0;
  };
  // Per layer: summed self and total time of its spans.
  std::map<std::string, LayerTime> ByLayer() const;
  // Per "layer/name": span durations in microseconds.
  std::map<std::string, std::vector<double>> DurationsByName() const;
  uint64_t SpanCount() const;

  // One JSON object per span, in per-thread completion order.
  bool WriteJsonl(const std::string& path) const;

 private:
  friend class SpanScope;
  struct ThreadBuffer {
    std::vector<SpanRecord> spans;
  };
  ThreadBuffer* BufferForThisThread();
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mu_
  std::atomic<uint64_t> next_id_{0};
};

// RAII span. `layer` and `name` must be string literals (stored unowned).
class SpanScope {
 public:
  SpanScope(const char* layer, const char* name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
