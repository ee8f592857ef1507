// servebench_loadgen: the serving benchmark's load generator.
//
// Drives a separate `puppies serve` process over loopback with one of the
// seeded workloads (workload.h), checks every download against an
// in-process reference replay, and prints the run's metrics. With
// --trace 1 it also replays the list in-process with spans around every
// layer call and prints the per-layer times and their reconciliation with
// the client-side medians.
//
//   servebench_loadgen --workload coef-photo --seed 1 --seconds 10
//       --trace 0 --server <puppies binary> --work-dir <dir>
//       [--commit C] [--source-digest D] [--calibrate]
//
// --calibrate sends an open-loop workload's list closed loop (each
// connection as fast as it can) to measure the capacity the open-loop
// rate is set from.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. The exit code is 0 only when every check passed.
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "corpus.h"
#include "puppies/core/pipeline.h"
#include "puppies/jpeg/codec.h"
#include "puppies/kernels/kernels.h"
#include "puppies/net/client.h"
#include "puppies/transform/transform.h"
#include "replay.h"
#include "server_process.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

using namespace puppies;
using namespace servebench;
using Clock = std::chrono::steady_clock;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Requests whose spans go to trace.jsonl (a feed-small run traces over
/// a hundred thousand; the reconciliation uses them all).
constexpr std::size_t kTraceFileRequests = 5000;
/// An open-loop run whose generator woke this late (p99, ms) for requests
/// due on an idle connection did not hold its schedule and is invalid.
constexpr double kMaxLatenessP99Ms = 5.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool calibrate = false;
  std::string server;
  std::string work_dir;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "servebench_loadgen: %s\n"
               "usage: servebench_loadgen --workload W --seed N --seconds S "
               "--trace 0|1 --server PATH --work-dir DIR [--commit C] "
               "[--source-digest D] [--calibrate]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value after " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") a.workload = next();
    else if (k == "--seed") a.seed = std::stoull(next());
    else if (k == "--seconds") a.seconds = std::stod(next());
    else if (k == "--trace") a.trace = next() != "0";
    else if (k == "--server") a.server = next();
    else if (k == "--work-dir") a.work_dir = next();
    else if (k == "--commit") a.commit = next();
    else if (k == "--source-digest") a.source_digest = next();
    else if (k == "--calibrate") a.calibrate = true;
    else usage(("unknown option " + k).c_str());
  }
  if (a.workload.empty() || a.server.empty() || a.work_dir.empty() || a.seconds <= 0)
    usage("--workload, --seconds, --server and --work-dir are required");
  return a;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// What the client saw for one timed request.
struct Outcome {
  bool ok = false;
  double latency_ms = 0;
  double lateness_ms = -1;  ///< open loop, idle connection only
  double start_ms = 0;      ///< latency clock start, after the phase start
  DownloadDigest download;
  Bytes body;  ///< kept only for downloads with verify_recovery
};

Bytes encode_request(const Request& r, const Corpus& corpus,
                     const std::vector<std::string>& ids) {
  const std::string& id = ids[static_cast<std::size_t>(r.image)];
  switch (r.op) {
    case Op::kUpload: {
      const Upload& up = corpus.upload(r.image);
      return net::encode_upload({up.jfif, up.params});
    }
    case Op::kApply: return net::encode_apply({id, r.mode, r.quality, r.chain});
    case Op::kDownload: return net::encode_download({id});
  }
  return {};
}

net::Op wire_op(Op op) {
  switch (op) {
    case Op::kUpload: return net::Op::kUpload;
    case Op::kApply: return net::Op::kApply;
    case Op::kDownload: return net::Op::kDownload;
  }
  return net::Op::kStats;
}

/// Sends one request and records the outcome. `start` is when the latency
/// clock starts: the send time (closed loop) or the due time (open loop).
Outcome send(net::Client& client, const Request& r, const Bytes& payload,
             Clock::time_point start, std::string* id_out) {
  Outcome o;
  try {
    const net::Client::Response resp = client.call(wire_op(r.op), payload);
    o.latency_ms = ms_between(start, Clock::now());
    o.ok = resp.status == net::Status::kOk;
    if (o.ok && r.op == Op::kUpload && id_out) *id_out = net::parse_text(resp.payload);
    if (o.ok && r.op == Op::kDownload) {
      o.download = {resp.payload.size(), hash64(resp.payload)};
      if (r.verify_recovery) o.body = resp.payload;
    }
  } catch (const std::exception& e) {
    o.latency_ms = ms_between(start, Clock::now());
    std::fprintf(stderr, "request failed: %s\n", e.what());
  }
  return o;
}

/// Set-up on one connection: its uploads, then its derivative applies.
bool run_setup(net::Client& client, const ConnectionPlan& cp,
               const Corpus& corpus, std::vector<std::string>& ids) {
  for (int img : cp.setup_uploads) {
    const Request r = make_request(Op::kUpload, img);
    const Outcome o = send(client, r, encode_request(r, corpus, ids),
                           Clock::now(), &ids[static_cast<std::size_t>(img)]);
    if (!o.ok) return false;
  }
  for (const Request& r : cp.setup_applies)
    if (!send(client, r, encode_request(r, corpus, ids), Clock::now(), nullptr).ok)
      return false;
  return true;
}

/// The timed list of one connection: closed loop (next request when the
/// previous answer arrives) or open loop (each request at its due time,
/// latency counted from then). A non-null `uploads_together` is waited on
/// before each upload; the wait is not part of the upload's latency.
std::vector<Outcome> run_timed(net::Client& client, const Plan& plan, int c,
                               const Corpus& corpus, std::vector<std::string>& ids,
                               Clock::time_point t0, bool open_loop,
                               std::barrier<>* uploads_together) {
  const ConnectionPlan& cp = plan.conns[static_cast<std::size_t>(c)];
  std::vector<Outcome> out;
  out.reserve(cp.timed.size());
  for (const Request& r : cp.timed) {
    const Bytes payload = encode_request(r, corpus, ids);
    if (uploads_together && r.op == Op::kUpload) uploads_together->arrive_and_wait();
    Clock::time_point start = Clock::now();
    double lateness = -1;
    if (open_loop) {
      const Clock::time_point due = t0 + std::chrono::microseconds(r.due_us);
      if (start < due) {
        std::this_thread::sleep_until(due);
        lateness = ms_between(due, Clock::now());
      }
      start = due;
    }
    Outcome o = send(client, r, payload, start, &ids[static_cast<std::size_t>(r.image)]);
    o.lateness_ms = lateness;
    o.start_ms = ms_between(t0, start);
    out.push_back(std::move(o));
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::printf("  %-30s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i ? ", " : "", ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
    s += buf;
  }
  return s + "}";
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) o += ch;
  }
  return o;
}

/// Receiver-side exact recovery of a coef-photo download: recovering the
/// served image with the ROI key must give exactly the original
/// coefficients under the served (canonical) chain.
bool recovers_exactly(const Bytes& reply_payload, const ImageSpec& spec,
                      const Corpus& corpus) {
  try {
    const net::DownloadReply reply = net::parse_download_reply(reply_payload);
    const jpeg::CoefficientImage served = jpeg::parse(reply.jfif);
    const core::PublicParameters params =
        core::PublicParameters::parse(reply.public_params);
    const jpeg::CoefficientImage recovered =
        core::recover_lossless(served, params, reply.chain, corpus.ring(spec));
    return recovered == transform::apply_lossless(reply.chain, corpus.original(spec));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "recovery check: %s\n", e.what());
    return false;
  }
}

/// Per-layer numbers from the traced replay.
struct LayerTimes {
  /// Per op: PSP call times, payload codec times, and each stage's summed
  /// self time per request (stage name -> values, one per request of the op).
  struct PerOp {
    std::vector<double> psp;
    std::vector<double> codec;
    std::map<std::string, double> stage_total;  ///< summed over requests
  };
  std::map<Op, PerOp> ops;
  /// Every call of a stage, by name (per-call medians).
  std::map<std::string, std::vector<double>> calls;
};

LayerTimes collect_layers(const Trace& trace, const Plan& plan) {
  LayerTimes lt;
  const std::vector<double> self = trace.self_ms();
  const auto& spans = trace.spans();
  // Depth-1 spans under a request are psp.*, net.payload_codec and stages;
  // stage spans are the descendants of "stages".
  std::vector<int> depth(spans.size(), 0);
  std::vector<bool> in_stages(spans.size(), false);
  LayerTimes::PerOp* cur = nullptr;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Trace::Span& s = spans[i];
    if (s.parent < 0) {
      const int c = static_cast<int>(s.request >> 32);
      const std::size_t idx = s.request & 0xffffffffu;
      cur = &lt.ops[plan.conns[static_cast<std::size_t>(c)].timed[idx].op];
      continue;
    }
    const auto p = static_cast<std::size_t>(s.parent);
    depth[i] = depth[p] + 1;
    in_stages[i] = in_stages[p] || std::strcmp(spans[p].name, "stages") == 0;
    if (depth[i] == 1) {
      if (std::strncmp(s.name, "psp.", 4) == 0) cur->psp.push_back(s.ms());
      if (std::strcmp(s.name, "net.payload_codec") == 0) cur->codec.push_back(s.ms());
      continue;
    }
    if (in_stages[i]) {
      cur->stage_total[s.name] += self[i];
      lt.calls[s.name].push_back(self[i]);
    }
  }
  return lt;
}

double median_of(const std::vector<double>& v) { return percentile(v, 50); }

/// CPU time the hypervisor gave other guests while this one's vCPUs were
/// runnable, summed over CPUs (the `steal` column of /proc/stat), in ms.
/// Reported beside the results: on a shared host it is the first suspect
/// when a run is slower than its neighbours.
double host_steal_ms() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  return v[7] * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

}  // namespace

int run(const Args& args) {
  // 1 us timer slack (default 50 us): open-loop sends wake on time.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  Workload workload;
  try {
    workload = parse_workload(args.workload);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  // Clear the previous run's files now, before anything is timed.
  std::filesystem::remove_all(args.work_dir);
  std::filesystem::create_directories(args.work_dir);
  if (args.seconds > kMaxPlanSeconds)
    std::fprintf(stderr, "servebench_loadgen: --seconds %g clamped to %g: every "
                 "upload stays in the server's memory for the whole run\n",
                 args.seconds, kMaxPlanSeconds);
  const Plan plan = make_plan(workload, args.seed, args.seconds);
  const std::size_t nconn = plan.conns.size();
  std::printf("servebench %s seed %llu: %zu images, %zu timed requests on %zu "
              "connections (%s loop%s)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              plan.images.size(), plan.timed_requests(), nconn,
              plan.open_loop ? "open" : "closed",
              plan.open_loop ? (", " + std::to_string(static_cast<int>(plan.rate_per_s)) + " req/s").c_str() : "");
  std::fflush(stdout);

  // ---- generator's own corpus (not part of set-up time) ----------------
  const auto synth_t0 = Clock::now();
  const Corpus corpus(plan);
  std::printf("corpus synthesized in %.2f s\n", ms_between(synth_t0, Clock::now()) / 1e3);

  // ---- set-up, repeated; the last one stays up for the timed phase -----
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  std::vector<net::Client> clients(nconn);
  std::vector<std::string> ids(plan.images.size());
  for (int k = 0; k < kSetups; ++k) {
    server.reset();
    ids.assign(plan.images.size(), "");
    const auto t0 = Clock::now();
    server = std::make_unique<ServerProcess>(args.server, args.work_dir,
                                             std::to_string(k));
    std::vector<char> ok(nconn, 0);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < nconn; ++c)
      threads.emplace_back([&, c] {
        try {
          clients[c] = net::Client();
          clients[c].connect("127.0.0.1", server->port());
          ok[c] = run_setup(clients[c], plan.conns[c], corpus, ids);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "set-up on connection %zu: %s\n", c, e.what());
        }
      });
    for (std::thread& t : threads) t.join();
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    if (std::count(ok.begin(), ok.end(), 0)) {
      std::fprintf(stderr, "set-up failed\n");
      return 1;
    }
  }

  // ---- timed phase ----------------------------------------------------
  const ServerStats before = parse_server_stats(clients[0].stats_json());
  const double cpu_before = server->cpu_ms();
  const double steal_before = host_steal_ms();
  std::vector<std::vector<Outcome>> outcomes(nconn);
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  {
    const bool closed_loop = !plan.open_loop || args.calibrate;
    std::barrier<> uploads_together(static_cast<std::ptrdiff_t>(nconn));
    std::barrier<>* align = plan.align_uploads && closed_loop ? &uploads_together : nullptr;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < nconn; ++c)
      threads.emplace_back([&, c] {
        try {
          outcomes[c] = run_timed(clients[c], plan, static_cast<int>(c), corpus,
                                  ids, t0, !closed_loop, align);
        } catch (const std::exception& e) {
          // Requests without an outcome count as failed below; the others
          // no longer wait for this connection.
          std::fprintf(stderr, "timed phase on connection %zu: %s\n", c, e.what());
          if (align) align->arrive_and_drop();
        }
      });
    for (std::thread& t : threads) t.join();
  }
  const double wall_s = ms_between(t0, Clock::now()) / 1e3;
  for (std::size_t c = 0; c < nconn; ++c) outcomes[c].resize(plan.conns[c].timed.size());
  const double cpu_ms = server->cpu_ms() - cpu_before;
  const double steal_ms = host_steal_ms() - steal_before;
  const ServerStats stats = parse_server_stats(clients[0].stats_json()).since(before);
  const double peak_rss_mb = server->peak_rss_mb();
  for (net::Client& c : clients) c.close();
  server.reset();

  // ---- aggregate client-side results -----------------------------------
  // Every timed request, for analysis beyond the summary metrics.
  std::FILE* tsv = std::fopen((args.work_dir + "/requests.tsv").c_str(), "w");
  if (tsv) std::fprintf(tsv, "conn\tindex\top\timage\tmegapixels\tstart_ms\tlatency_ms\tbytes\tok\n");
  std::map<Op, std::vector<double>> latency;
  std::map<Op, std::vector<Sample>> samples;
  std::vector<double> lateness;
  std::size_t attempted = 0, failed = 0, completed = 0;
  double apply_mp = 0;
  for (std::size_t c = 0; c < nconn; ++c)
    for (std::size_t i = 0; i < outcomes[c].size(); ++i) {
      const Outcome& o = outcomes[c][i];
      const Request& r = plan.conns[c].timed[i];
      ++attempted;
      if (tsv)
        std::fprintf(tsv, "%zu\t%zu\t%s\t%d\t%.3f\t%.3f\t%.4f\t%zu\t%d\n", c, i,
                     std::string(op_name(r.op)).c_str(), r.image,
                     plan.images[static_cast<std::size_t>(r.image)].megapixels(),
                     o.start_ms, o.latency_ms, o.download.length, o.ok ? 1 : 0);
      if (o.lateness_ms >= 0) lateness.push_back(o.lateness_ms);
      if (!o.ok) {
        ++failed;
        continue;
      }
      ++completed;
      latency[r.op].push_back(o.latency_ms);
      samples[r.op].push_back({o.start_ms, o.latency_ms});
      if (r.op == Op::kApply) apply_mp += plan.images[static_cast<std::size_t>(r.image)].megapixels();
    }

  if (tsv) std::fclose(tsv);

  // ---- reference replay: byte identity of every download ---------------
  Trace trace;
  const auto ref_t0 = Clock::now();
  std::vector<std::string> invalid;
  std::vector<std::vector<DownloadDigest>> expect;
  try {
    expect = replay(plan, corpus, args.trace ? &trace : nullptr);
  } catch (const std::exception& e) {
    invalid.push_back(std::string("reference replay failed: ") + e.what());
  }
  std::printf("reference replay in %.2f s\n", ms_between(ref_t0, Clock::now()) / 1e3);
  std::size_t mismatches = 0, recovery_checks = 0, recovery_failures = 0;
  for (std::size_t c = 0; c < expect.size(); ++c)
    for (std::size_t i = 0; i < outcomes[c].size(); ++i) {
      const Request& r = plan.conns[c].timed[i];
      const Outcome& o = outcomes[c][i];
      if (r.op != Op::kDownload || !o.ok) continue;
      if (!(o.download == expect[c][i])) {
        if (mismatches++ < 5)
          std::fprintf(stderr, "mismatch: connection %zu request %zu image %d: %zu "
                       "bytes, expected %zu\n", c, i, r.image, o.download.length,
                       expect[c][i].length);
        ++failed;
      }
      if (r.verify_recovery) {
        ++recovery_checks;
        if (!recovers_exactly(o.body, plan.images[static_cast<std::size_t>(r.image)], corpus)) {
          ++recovery_failures;
          ++failed;
        }
      }
    }

  // ---- workload validity, from the server's own counters ---------------
  const double hits = stats.counter("cache.hit"), misses = stats.counter("cache.miss");
  const double dedup = stats.counter("store.put_dedup");
  if (!plan.open_loop) {
    if (hits != 0) invalid.push_back("photo workload saw transform-cache hits");
    if (dedup != 0) invalid.push_back("photo workload saw store put dedups");
  } else {
    const double share = hits + misses > 0 ? hits / (hits + misses) : 0;
    if (std::fabs(share - plan.planned_hit_share()) > 0.01)
      invalid.push_back("cache hit share " + std::to_string(share) +
                        " differs from the planned " + std::to_string(plan.planned_hit_share()));
  }
  const double lateness_p99 = percentile(lateness, 99);
  if (plan.open_loop && !args.calibrate && lateness_p99 > kMaxLatenessP99Ms)
    invalid.push_back("generator lagged its schedule (p99 lateness " +
                      std::to_string(lateness_p99) + " ms)");
  if (recovery_failures) invalid.push_back("receiver recovery mismatch");
  if (mismatches) invalid.push_back("download bytes differ from the reference");

  // ---- report ----------------------------------------------------------
  const std::string host = std::string("{\"workload\": \"") + args.workload +
      "\", \"seed\": " + std::to_string(args.seed) +
      ", \"backend\": \"memory\", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"simd_tier\": \"" + std::string(kernels::to_string(kernels::active_tier())) +
      "\", \"build_type\": \"" SERVEBENCH_BUILD_TYPE "\", \"commit\": \"" +
      json_escape(args.commit) + "\", \"source_digest\": \"" +
      json_escape(args.source_digest) + "\"}";
  std::printf("host %s\n", host.c_str());
  std::printf("timed phase %.2f s; %zu attempted, %zu failed (failed_frac %.6f ratio); "
              "%zu downloads checked, %zu recovery checks; generator lateness "
              "p99 %.3f ms; host steal %.0f ms\n",
              wall_s, attempted, failed,
              static_cast<double>(failed) / static_cast<double>(std::max<std::size_t>(attempted, 1)),
              latency[Op::kDownload].size(), recovery_checks, lateness_p99, steal_ms);
  for (const std::string& why : invalid) std::printf("INVALID: %s\n", why.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::sort(setup_s.begin(), setup_s.end());
    auto pct = [&](Op op, double q) {
      return windowed_percentile(samples[op], q, plan.windows, wall_s * 1e3);
    };
    // Printed, not reported: too unsteady between runs to hold a bound.
    std::printf("download p90 %.4f ms\n", pct(Op::kDownload, 90));
    metrics = {
        {"upload_p50_ms", pct(Op::kUpload, 50), "ms"},
        {"upload_p90_ms", pct(Op::kUpload, 90), "ms"},
        {"apply_p50_ms", pct(Op::kApply, 50), "ms"},
        {"apply_p90_ms", pct(Op::kApply, 90), "ms"},
        {"download_p50_ms", pct(Op::kDownload, 50), "ms"},
        {"throughput_mp_s", apply_mp / wall_s, "MP/s"},
        {"requests_per_s", static_cast<double>(completed) / wall_s, "1/s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"cpu_ms_per_request", cpu_ms / static_cast<double>(std::max<std::size_t>(completed, 1)), "ms"},
        {"setup_s", setup_s[setup_s.size() / 2], "s"},
    };
  } else {
    const LayerTimes lt = collect_layers(trace, plan);
    auto call_median = [&](const char* name) {
      const auto it = lt.calls.find(name);
      return it == lt.calls.end() ? 0.0 : median_of(it->second);
    };
    auto op_of = [&](Op op) -> const LayerTimes::PerOp& {
      static const LayerTimes::PerOp empty;
      const auto it = lt.ops.find(op);
      return it == lt.ops.end() ? empty : it->second;
    };
    // Reconciliation per op, printed twice: medians (the client-side view)
    // and means (where the stage times add up exactly).
    std::map<Op, Reconciliation> rec_mean;
    std::printf("\nreconciliation per op (ms): client = psp + net overhead; "
                "psp = stage sum + unattributed\n");
    for (Op op : {Op::kUpload, Op::kApply, Op::kDownload}) {
      const LayerTimes::PerOp& p = op_of(op);
      if (p.psp.empty()) continue;
      const double n = static_cast<double>(p.psp.size());
      Reconciliation med{median_of(latency[op]), median_of(p.psp), {}};
      Reconciliation avg{mean(latency[op]), mean(p.psp), {}};
      for (const auto& [name, total] : p.stage_total)
        if (name != "common.sha256") avg.stages.emplace_back(name, total / n);
      rec_mean[op] = avg;
      std::printf("  %-8s p50: client %.4f = psp %.4f + net overhead %.4f\n",
                  std::string(op_name(op)).c_str(), med.client, med.psp, med.net_overhead());
      std::printf("  %-8s mean: client %.4f = psp %.4f + net overhead %.4f; "
                  "psp %.4f = stages %.4f + unattributed %.4f\n",
                  "", avg.client, avg.psp, avg.net_overhead(), avg.psp,
                  avg.stage_sum(), avg.unattributed());
      for (const auto& [name, ms] : avg.stages)
        std::printf("      %-22s %10.4f\n", name.c_str(), ms);
      const auto sha = p.stage_total.find("common.sha256");
      if (sha != p.stage_total.end())
        std::printf("      %-22s %10.4f (inside the store calls)\n", "common.sha256",
                    sha->second / n);
      std::printf("      %-22s %10.4f (payload encode/parse, inside net overhead)\n",
                  "net.payload_codec", mean(p.codec));
    }
    auto overhead = [&](Op op) {
      return median_of(latency[op]) - median_of(op_of(op).psp);
    };
    std::vector<double> codec;
    for (const auto& [op, p] : lt.ops) codec.insert(codec.end(), p.codec.begin(), p.codec.end());
    // Queue wait: server-side op time (admission to reply queued) minus
    // the PSP's own time for it, from the histograms' sums.
    const double op_ms = stats.histogram("net.op.upload_ms").sum_ms +
                         stats.histogram("net.op.apply_ms").sum_ms +
                         stats.histogram("net.op.download_ms").sum_ms;
    const double psp_ms = stats.histogram("psp.upload_ms").sum_ms +
                          stats.histogram("psp.transform.lossless_ms").sum_ms +
                          stats.histogram("psp.transform.pixel_ms").sum_ms +
                          stats.histogram("psp.download_ms").sum_ms;
    const double op_count = stats.histogram("net.op.upload_ms").count +
                            stats.histogram("net.op.apply_ms").count +
                            stats.histogram("net.op.download_ms").count;
    const double delta_calls = stats.counter("psp.codec.serialize") +
                               stats.counter("psp.codec.recompress_streamed");
    const double copied = stats.counter("psp.codec.segments_copied");
    const double reencoded = stats.counter("psp.codec.segments_reencoded");
    const double puts = stats.counter("store.put") + dedup;
    auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    metrics = {
        {"net.overhead_upload_ms", overhead(Op::kUpload), "ms"},
        {"net.overhead_apply_ms", overhead(Op::kApply), "ms"},
        {"net.overhead_download_ms", overhead(Op::kDownload), "ms"},
        {"net.payload_codec_ms", median_of(codec), "ms"},
        {"exec.queue_wait_ms", frac(op_ms - psp_ms, op_count), "ms"},
        {"psp.upload_ms", median_of(op_of(Op::kUpload).psp), "ms"},
        {"psp.apply_ms", median_of(op_of(Op::kApply).psp), "ms"},
        {"psp.download_ms", median_of(op_of(Op::kDownload).psp), "ms"},
        {"psp.unattributed_upload_ms", rec_mean[Op::kUpload].unattributed(), "ms"},
        {"psp.unattributed_apply_ms", rec_mean[Op::kApply].unattributed(), "ms"},
        {"store.put_ms", call_median("store.put"), "ms"},
        {"store.get_ms", call_median("store.get"), "ms"},
        {"store.cache_ms", call_median("store.cache"), "ms"},
        {"common.sha256_ms", call_median("common.sha256"), "ms"},
        {"jpeg.parse_ms", call_median("jpeg.parse"), "ms"},
        {"jpeg.serialize_ms", call_median("jpeg.serialize"), "ms"},
        {"jpeg.inverse_ms", call_median("jpeg.inverse"), "ms"},
        {"jpeg.forward_ms", call_median("jpeg.forward"), "ms"},
        {"jpeg.recompress_ms", call_median("jpeg.recompress"), "ms"},
        {"transform.lossless_ms", call_median("transform.lossless"), "ms"},
        {"transform.pixel_ms", call_median("transform.pixel"), "ms"},
    };
    // Printed, not reported: on the listed workloads these are fixed by
    // construction (a refusal or a photo cache hit or dedup fails the run;
    // the delta path always falls back under `puppies serve`), so they
    // could never move; feed-small moves the cache and dedup shares.
    std::printf("\nserver counters over the timed phase:\n");
    print_metrics({
        {"net.refused", stats.counter("net.busy") + stats.counter("net.deadline_expired") +
                            stats.counter("net.too_large") + stats.counter("net.bad_request"),
         "count"},
        {"store.cache_hit_ratio", frac(hits, hits + misses), "ratio"},
        {"store.put_dedup_frac", frac(dedup, puts), "ratio"},
        {"jpeg.delta_copied_frac", frac(copied, copied + reencoded), "ratio"},
        {"jpeg.delta_fallback_frac", frac(stats.counter("psp.codec.delta_fallbacks"), delta_calls), "ratio"},
    });
    const std::string trace_path = args.work_dir + "/trace.jsonl";
    if (std::FILE* f = std::fopen(trace_path.c_str(), "w")) {
      trace.write_jsonl(f, kTraceFileRequests);
      std::fclose(f);
      std::printf("wrote the spans of up to %zu requests to %s\n", kTraceFileRequests,
                  trace_path.c_str());
    }
  }
  std::printf("\nmetrics (%s):\n", args.trace ? "per layer" : "end to end");
  print_metrics(metrics);

  const bool correct = failed == 0 && invalid.empty();
  const std::string result = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(attempted) +
                             ", \"failed\": " + std::to_string(failed) +
                             ", \"metrics\": " + json_metrics(metrics) + "}";
  if (std::FILE* f = std::fopen((args.work_dir + "/result.json").c_str(), "w")) {
    std::fprintf(f, "{\"host\": %s, \"result\": %s}\n", host.c_str(), result.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench_loadgen: %s\n", e.what());
    return 1;
  }
}
