#include "trace.h"

namespace servebench {

std::vector<double> Trace::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].ms();
  for (const Span& s : spans_)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.ms();
  return self;
}

void Trace::write_jsonl(std::FILE* f, std::size_t max_requests) const {
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::size_t requests = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0 && ++requests > max_requests) break;
    std::fprintf(f,
                 "{\"span\": %zu, \"request\": %llu, \"name\": \"%s\", "
                 "\"parent\": %d, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 i, static_cast<unsigned long long>(s.request), s.name,
                 s.parent, static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - t0) / 1e3);
  }
}

}  // namespace servebench
