#include "stats.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <stdexcept>

namespace servebench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 100.0) / 100.0 *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double s = 0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

double windowed_percentile(const std::vector<Sample>& samples, double q,
                           int windows, double span_ms) {
  std::vector<std::vector<double>> by_window(
      static_cast<std::size_t>(span_ms > 0 ? std::max(windows, 1) : 1));
  const double n = static_cast<double>(by_window.size());
  for (const Sample& s : samples) {
    const double w = by_window.size() == 1 ? 0 : s.start_ms / span_ms * n;
    by_window[static_cast<std::size_t>(std::clamp(w, 0.0, n - 1))].push_back(s.latency_ms);
  }
  if (by_window.size() == 1) return percentile(std::move(by_window[0]), q);
  std::vector<double> per_window;
  for (std::vector<double>& v : by_window)
    if (v.size() >= kMinWindowSamples) per_window.push_back(percentile(std::move(v), q));
  return percentile(std::move(per_window), 50);
}

double Reconciliation::stage_sum() const {
  double s = 0;
  for (const auto& [name, ms] : stages) s += ms;
  return s;
}

std::uint64_t hash64(std::span<const std::uint8_t> data) {
  // 8 bytes per step, multiply-xorshift mixing (the splitmix64 finalizer).
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  std::uint64_t h = 0x243f6a8885a308d3ull ^ data.size();
  auto mix = [](std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  };
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, data.data() + i, 8);
    h = (h ^ mix(w)) * kMul;
  }
  std::uint64_t tail = 0;
  if (i < data.size()) std::memcpy(&tail, data.data() + i, data.size() - i);
  return mix(h ^ mix(tail ^ (data.size() - i)));
}

double ServerStats::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

ServerStats::Hist ServerStats::histogram(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? Hist{} : it->second;
}

ServerStats ServerStats::since(const ServerStats& before) const {
  ServerStats d = *this;
  for (auto& [name, v] : d.counters) v -= before.counter(name);
  for (auto& [name, h] : d.histograms) {
    const Hist b = before.histogram(name);
    h.count -= b.count;
    h.sum_ms -= b.sum_ms;
  }
  return d;
}

namespace {

/// Just enough JSON for the registry dump: objects, arrays, strings without
/// escapes, and numbers. Each number leaf is reported with its key path,
/// joined by \x1f (metric names contain dots).
class JsonWalker {
 public:
  explicit JsonWalker(std::string_view s) : s_(s) {}

  template <typename Leaf>
  void walk(const std::string& path, Leaf&& leaf) {
    skip_ws();
    if (peek() == '{') {
      ++i_;
      skip_ws();
      if (peek() == '}') {
        ++i_;
        return;
      }
      while (true) {
        skip_ws();
        const std::string key = string();
        skip_ws();
        expect(':');
        walk(path.empty() ? key : path + "\x1f" + key, leaf);
        skip_ws();
        if (peek() == ',') {
          ++i_;
          continue;
        }
        expect('}');
        return;
      }
    }
    if (peek() == '[') {
      ++i_;
      skip_ws();
      if (peek() == ']') {
        ++i_;
        return;
      }
      while (true) {
        walk(path + "\x1f[]", leaf);
        skip_ws();
        if (peek() == ',') {
          ++i_;
          continue;
        }
        expect(']');
        return;
      }
    }
    if (peek() == '"') {
      string();
      return;
    }
    const std::size_t start = i_;
    while (i_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
                              std::strchr("+-.eE", s_[i_])))
      ++i_;
    if (start == i_) throw std::runtime_error("stats json: bad value");
    leaf(path, std::stod(std::string(s_.substr(start, i_ - start))));
  }

  void finish() {
    skip_ws();
    if (i_ != s_.size()) throw std::runtime_error("stats json: trailing bytes");
  }

 private:
  char peek() const {
    if (i_ >= s_.size()) throw std::runtime_error("stats json: truncated");
    return s_[i_];
  }
  void expect(char c) {
    if (peek() != c) throw std::runtime_error(std::string("stats json: expected ") + c);
    ++i_;
  }
  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) ++i_;
  }
  std::string string() {
    expect('"');
    const std::size_t end = s_.find('"', i_);
    if (end == std::string_view::npos) throw std::runtime_error("stats json: truncated");
    std::string out(s_.substr(i_, end - i_));
    i_ = end + 1;
    return out;
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

}  // namespace

ServerStats parse_server_stats(std::string_view json) {
  ServerStats st;
  JsonWalker w(json);
  w.walk("", [&](const std::string& path, double v) {
    const std::size_t a = path.find('\x1f');
    if (a == std::string::npos) return;
    const std::string section = path.substr(0, a);
    const std::string rest = path.substr(a + 1);
    if (section == "counters") {
      st.counters[rest] = v;
    } else if (section == "histograms") {
      const std::size_t b = rest.find('\x1f');
      if (b == std::string::npos) return;
      const std::string field = rest.substr(b + 1);
      ServerStats::Hist& h = st.histograms[rest.substr(0, b)];
      if (field == "count") h.count = v;
      if (field == "sum_ms") h.sum_ms = v;
    }
  });
  w.finish();
  return st;
}

}  // namespace servebench
