// The serving benchmark's own tests: request lists are deterministic per
// seed, differ across seeds and stay bounded, the percentile and zipf
// sampler give known answers, the per-op reconciliation adds up, and the
// kStats reader parses the server's metrics dump. Plain asserts, no test
// framework: run the binary (or `python3 servebench/run.py --self-test`);
// exit 0 = pass.
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "puppies/metrics/metrics.h"
#include "stats.h"
#include "workload.h"

using namespace servebench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void plans_are_deterministic_per_seed() {
  for (Workload w : all_workloads()) {
    const std::string a = fingerprint(make_plan(w, 7, 2));
    check(a == fingerprint(make_plan(w, 7, 2)), "same seed, same plan");
    check(a != fingerprint(make_plan(w, 8, 2)), "other seed, other plan");
  }
}

void photo_plans_keep_their_invariants() {
  for (Workload w : {Workload::kCoefPhoto, Workload::kPixelPhoto}) {
    const Plan p = make_plan(w, 3, 10);
    // Every (image, canonical chain, quality) is new: no transform-cache hit.
    std::set<std::string> seen;
    bool unique = true;
    std::multiset<int> sizes_a, sizes_b;
    for (const ConnectionPlan& c : p.conns)
      for (const Request& r : c.timed) {
        if (r.op != Op::kApply) continue;
        std::string k = std::to_string(r.image) + "|" + std::to_string(r.quality) + "|";
        for (const auto& s : puppies::transform::canonicalize(r.chain)) k += s.to_string();
        if (!seen.insert(k).second) unique = false;
      }
    check(unique, "photo applies never repeat an (image, chain)");
    // The size mix does not depend on the seed.
    const Plan q = make_plan(w, 4, 10);
    for (const ImageSpec& s : p.images) sizes_a.insert(s.width);
    for (const ImageSpec& s : q.images) sizes_b.insert(s.width);
    check(sizes_a == sizes_b, "photo size mix is the same for every seed");
    check(p.count(Op::kApply) + p.images.size() == p.count(Op::kDownload),
          "one download per apply, plus one of each original");
    // align_uploads waits for every connection at each upload.
    bool same_uploads = p.align_uploads;
    for (const ConnectionPlan& c : p.conns) {
      std::size_t n = 0;
      for (const Request& r : c.timed) n += r.op == Op::kUpload;
      same_uploads = same_uploads && n * p.conns.size() == p.count(Op::kUpload);
    }
    check(same_uploads, "photo connections upload in step");
  }
}

void plans_are_bounded() {
  // The wire has no delete op, so a longer run must not keep more uploads.
  for (Workload w : {Workload::kCoefPhoto, Workload::kPixelPhoto})
    check(fingerprint(make_plan(w, 1, 2)) == fingerprint(make_plan(w, 1, 600)),
          "photo plans replay one deck whatever the seconds");
  check(make_plan(Workload::kFeedSmall, 1, 600).count(Op::kUpload) ==
            make_plan(Workload::kFeedSmall, 1, kMaxPlanSeconds).count(Op::kUpload),
        "feed plans stop growing at kMaxPlanSeconds");
}

void feed_plan_mix() {
  const Plan p = make_plan(Workload::kFeedSmall, 5, 2);
  const double n = static_cast<double>(p.timed_requests());
  check(near(p.count(Op::kDownload) / n, 0.90), "feed: 90% downloads");
  check(near(p.count(Op::kApply) / n, 0.08), "feed: 8% applies");
  check(near(p.count(Op::kUpload) / n, 0.02), "feed: 2% uploads");
  check(near(p.planned_hit_share(), 0.75), "feed: 3 of 4 applies are repeats");
  bool increasing = true;
  for (const ConnectionPlan& c : p.conns)
    for (std::size_t i = 1; i < c.timed.size(); ++i)
      if (c.timed[i].due_us < c.timed[i - 1].due_us) increasing = false;
  check(increasing, "feed: due times never go backwards");
}

void percentile_known_answers() {
  check(near(percentile({}, 50), 0), "empty percentile is 0");
  check(near(percentile({5}, 90), 5), "single value");
  check(near(percentile({4, 1, 3, 2}, 50), 2.5), "p50 of 1..4 interpolates");
  check(near(percentile({1, 2, 3, 4}, 90), 3.7), "p90 of 1..4");
  check(near(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90), 10), "p90 of 1..11");
  check(near(percentile({1, 2, 3}, 0), 1) && near(percentile({1, 2, 3}, 100), 3),
        "p0 and p100 are min and max");
  check(near(mean({1, 2, 3, 6}), 3), "mean");
}

void windowed_percentile_known_answers() {
  std::vector<Sample> s;
  for (int i = 0; i < 25; ++i) {
    s.push_back({1.0 + i * 0.1, 1.0});    // window 0 of [0, 30)
    s.push_back({11.0 + i * 0.1, 2.0});   // window 1
    s.push_back({21.0 + i * 0.1, 100.0}); // window 2: a burst of noise
  }
  check(near(windowed_percentile(s, 90, 3, 30), 2.0), "median of window p90s");
  check(near(windowed_percentile(s, 50, 1, 30), 2.0), "one window is the plain percentile");
  s.push_back({29.0, 1000.0});
  check(near(windowed_percentile(s, 90, 3, 30), 2.0), "one more slow sample moves nothing");
  std::vector<Sample> sparse = s;
  for (int i = 0; i < 5; ++i) sparse.push_back({35.0, 0.5});  // clamped into the last window
  check(near(windowed_percentile(sparse, 50, 3, 30), 2.0), "late samples join the last window");
  std::vector<Sample> few = {{1, 5}, {2, 6}};
  for (int i = 0; i < 20; ++i) few.push_back({15, 3});
  check(near(windowed_percentile(few, 50, 2, 20), 3.0), "a window under 20 samples is skipped");
}

void zipf_known_answers() {
  // s = 1, n = 3: weights 1, 1/2, 1/3 over H = 11/6.
  const Zipf z(3, 1.0);
  check(near(z.probability(0), 6.0 / 11), "zipf p(0)");
  check(near(z.probability(1), 3.0 / 11), "zipf p(1)");
  check(near(z.probability(2), 2.0 / 11), "zipf p(2)");
  check(z.rank(0.0) == 0 && z.rank(0.54) == 0, "zipf rank 0 below 6/11");
  check(z.rank(0.55) == 1 && z.rank(0.81) == 1, "zipf rank 1 up to 9/11");
  check(z.rank(0.82) == 2 && z.rank(0.999999) == 2, "zipf rank 2 above 9/11");
  const Zipf one(1, 1.0);
  check(one.rank(0.7) == 0, "zipf over one rank");
  const Zipf flat(4, 0.0);
  check(near(flat.probability(3), 0.25), "zipf s = 0 is uniform");
}

void reconciliation_adds_up() {
  Reconciliation r{10.0, 7.5, {{"jpeg.parse", 4.0}, {"store.put", 2.5}}};
  check(near(r.stage_sum(), 6.5), "stage sum");
  check(near(r.unattributed(), 1.0), "unattributed = psp - stages");
  check(near(r.net_overhead(), 2.5), "net overhead = client - psp");
  check(near(r.stage_sum() + r.unattributed(), r.psp), "stages + unattributed = psp");
  check(near(r.psp + r.net_overhead(), r.client), "psp + overhead = client");
}

void server_stats_round_trip() {
  puppies::metrics::counter("servebench.test.count").add(3);
  puppies::metrics::histogram("servebench.test_ms").observe(2.0);
  puppies::metrics::histogram("servebench.test_ms").observe(4.0);
  const ServerStats before = parse_server_stats(puppies::metrics::dump_json());
  check(near(before.counter("servebench.test.count"), 3), "counter parsed");
  check(near(before.histogram("servebench.test_ms").count, 2), "histogram count parsed");
  check(near(before.histogram("servebench.test_ms").sum_ms, 6), "histogram sum parsed");
  puppies::metrics::counter("servebench.test.count").add(2);
  puppies::metrics::histogram("servebench.test_ms").observe(1.0);
  const ServerStats d =
      parse_server_stats(puppies::metrics::dump_json()).since(before);
  check(near(d.counter("servebench.test.count"), 2), "counter delta");
  check(near(d.histogram("servebench.test_ms").count, 1), "histogram count delta");
  check(near(d.histogram("servebench.test_ms").sum_ms, 1), "histogram sum delta");
  check(near(d.counter("no.such.counter"), 0), "missing counter reads 0");
}

void hash_distinguishes_bytes() {
  const puppies::Bytes a = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  puppies::Bytes b = a;
  check(hash64(a) == hash64(b), "hash is a function of the bytes");
  b[8] ^= 1;
  check(hash64(a) != hash64(b), "a flipped tail bit changes the hash");
  b = a;
  b.push_back(0);
  check(hash64(a) != hash64(b), "a trailing zero changes the hash");
}

}  // namespace

int main() {
  plans_are_deterministic_per_seed();
  photo_plans_keep_their_invariants();
  plans_are_bounded();
  feed_plan_mix();
  percentile_known_answers();
  windowed_percentile_known_answers();
  zipf_known_answers();
  reconciliation_adds_up();
  server_stats_round_trip();
  hash_distinguishes_bytes();
  if (failures) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("servebench_tests: all checks passed\n");
  return 0;
}
