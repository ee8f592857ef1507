// In-memory span recorder for the traced run. Spans are recorded only
// around the benchmark's own calls into each layer (nothing inside the
// program is instrumented): name, start, end, parent span, and the id of
// the request that caused it. Single-threaded: the traced replay runs one
// request at a time, so spans nest by a plain stack.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace servebench {

class Trace {
 public:
  struct Span {
    std::uint64_t request = 0;
    const char* name = "";
    int parent = -1;  ///< index into spans(), -1 for a request's root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  };

  /// Opens a span under the innermost open one.
  void open(std::uint64_t request, const char* name) {
    spans_.push_back(Span{request, name, stack_.empty() ? -1 : stack_.back(),
                          now_ns(), 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void close() {
    spans_[static_cast<std::size_t>(stack_.back())].end_ns = now_ns();
    stack_.pop_back();
  }

  /// RAII open/close.
  class Scope {
   public:
    Scope(Trace& t, std::uint64_t request, const char* name) : t_(t) {
      t_.open(request, name);
    }
    ~Scope() { t_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& t_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    stack_.clear();
  }

  /// Every span's self time in ms: its duration minus the part its direct
  /// children cover (children never overlap: the replay is sequential).
  std::vector<double> self_ms() const;

  /// Writes one JSON object per line: request, name, parent, start/end in
  /// microseconds from the first span; the spans of the first
  /// `max_requests` requests only.
  void write_jsonl(std::FILE* f, std::size_t max_requests) const;

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace servebench
