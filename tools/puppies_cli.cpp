// puppies — command-line front end for the library.
//
//   puppies generate <dataset> <index> <out.ppm>
//   puppies keygen <out.key>
//   puppies protect <in.ppm> <out.jpg> <out.pub> --key <file>
//           [--roi x,y,w,h ...] [--auto] [--scheme N|B|C|Z]
//           [--level low|medium|high] [--quality N] [--chroma 444|420]
//   puppies recover <in.jpg> <in.pub> <out.ppm> --key <file> [--key <file>...]
//   puppies recompress <in.jpg> <out.jpg> [--quality N] [--optimize on|off]
//           [--restart N]
//   puppies inspect <in.jpg> [<in.pub>]
//   puppies attack <in.jpg> <in.pub> <out.ppm> --method inference|inpaint|pca
//   puppies store put <file>... [--dir DIR] [--shards N]
//   puppies store get <digest> <out> [--dir DIR] [--shards N]
//   puppies store stats [--json] [--dir DIR] [--shards N]
//   puppies store scrub [--repair] [--json] [--dir DIR] [--shards N]
//   puppies store gc [--json] [--dir DIR] --shards N [--gc-grace N]
//   puppies serve [--port N] [--host H] [--max-inflight N] [--deadline-ms N]
//          [--max-request-bytes N] [--backend memory|disk|replicated]
//          [--dir DIR] [--shards N] [--replicas R] [--quorum W]
//          [--hot-bytes N] [--gc-grace N] [--scrub-interval-ms N]
//          [--scrub-budget-bytes N] [--port-file PATH]
//
// Images are PPM on the pixel side and baseline JPEG (this codec) on the
// shared side; keys are 64-hex-char files produced by `keygen`. The store
// subcommands address blobs by SHA-256 content digest; the blob directory
// is --dir, else $PUPPIES_DATA_DIR, else ./puppies_data. `store scrub`
// re-verifies every blob against its address and quarantines mismatches;
// --repair additionally purges the quarantine area and stale temp files.
// --shards N switches the store commands to the replicated composite over
// N disk shards under --dir (DESIGN.md §14): scrub then verifies and
// repairs replica divergence, and `store gc` reclaims unpinned orphans.
// The global --faults flag (equivalently PUPPIES_FAULTS) arms deterministic
// fault injection for robustness testing, e.g.
// --faults "store.put.write=once,store.get.read=p:0.3:7" (DESIGN.md §9).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "puppies/attacks/correlation.h"
#include "puppies/common/digest.h"
#include "puppies/core/pipeline.h"
#include "puppies/exec/pool.h"
#include "puppies/fault/fault.h"
#include "puppies/image/ppm.h"
#include "puppies/jpeg/chunk.h"
#include "puppies/jpeg/codec.h"
#include "puppies/jpeg/inspect.h"
#include "puppies/kernels/kernels.h"
#include "puppies/metrics/metrics.h"
#include "puppies/net/server.h"
#include "puppies/roi/detect.h"
#include "puppies/store/blob_store.h"
#include "puppies/store/replicated_store.h"
#include "puppies/synth/synth.h"

using namespace puppies;

namespace {

[[noreturn]] void usage(const char* error = nullptr) {
  if (error) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr, "%s",
               "usage:\n"
               "  puppies generate <caltech|feret|inria|pascal> <index> <out.ppm>\n"
               "  puppies keygen <out.key>\n"
               "  puppies protect <in.ppm> <out.jpg> <out.pub> --key <file>\n"
               "          [--roi x,y,w,h ...] [--auto] [--scheme N|B|C|Z]\n"
               "          [--level low|medium|high] [--quality N] [--chroma 444|420]\n"
               "          [--optimize on|off]\n"
               "  puppies recover <in.jpg> <in.pub> <out.ppm> --key <file> [--key ...]\n"
               "  puppies recompress <in.jpg> <out.jpg> [--quality N]\n"
               "          [--optimize on|off] [--restart N]\n"
               "  puppies inspect <in.jpg> [<in.pub>]\n"
               "  puppies attack <in.jpg> <in.pub> <out.ppm> --method "
               "inference|inpaint|pca\n"
               "  puppies store put <file>... [--dir DIR] [--shards N]\n"
               "  puppies store get <digest> <out> [--dir DIR] [--shards N]\n"
               "  puppies store stats [--json] [--dir DIR] [--shards N]\n"
               "  puppies store scrub [--repair] [--json] [--dir DIR] [--shards N]\n"
               "  puppies store gc [--json] [--dir DIR] --shards N [--gc-grace N]\n"
               "  puppies serve [--port N] [--host H] [--max-inflight N]\n"
               "          [--deadline-ms N] [--max-request-bytes N]\n"
               "          [--backend memory|disk|replicated] [--dir DIR]\n"
               "          [--shards N] [--replicas R] [--quorum W]\n"
               "          [--hot-bytes N] [--gc-grace N] [--scrub-interval-ms N]\n"
               "          [--scrub-budget-bytes N] [--restart-interval N]\n"
               "          [--port-file PATH]\n"
               "\n"
               "global options:\n"
               "  --threads N   worker threads for parallel stages (default:\n"
               "                PUPPIES_THREADS env var, else all cores)\n"
               "  --simd TIER   SIMD kernel tier: scalar|avx2 (default:\n"
               "                PUPPIES_SIMD env var, else CPU detection)\n"
               "  --chunk-rows N  MCU rows per encode chunk; bounds encode\n"
               "                scratch at O(width * N) (default:\n"
               "                PUPPIES_CHUNK_ROWS env var, else 16);\n"
               "                output bytes are identical for every value\n"
               "  --faults SPEC arm deterministic fault injection (default:\n"
               "                PUPPIES_FAULTS env var); SPEC is a list of\n"
               "                point=once|always|nth:N|p:P[:SEED] items\n"
               "\n"
               "store options:\n"
               "  --dir DIR     blob directory (default: PUPPIES_DATA_DIR env\n"
               "                var, else ./puppies_data)\n"
               "  --json        stats/scrub/gc report as JSON\n"
               "  --repair      scrub also purges quarantine/ and stale tmp files\n"
               "  --shards N    replicated composite over N disk shards under\n"
               "                --dir (DESIGN.md \xc2\xa7" "14); enables `store gc`\n"
               "  --replicas R / --quorum W   copies per blob and write acks\n"
               "                required (defaults 3 / 2, clamped to N)\n"
               "  --gc-grace N  operations an orphan ages before gc reclaims it\n"
               "\n"
               "serve options (DESIGN.md \xc2\xa7" "12):\n"
               "  --port N      TCP port; 0 (default) picks an ephemeral port\n"
               "  --host H      IPv4 bind address (default 127.0.0.1)\n"
               "  --max-inflight N   admitted-but-unanswered request cap; past\n"
               "                it requests get an immediate BUSY (default 64)\n"
               "  --deadline-ms N    default per-request deadline (default 10000)\n"
               "  --max-request-bytes N  request payload cap enforced before\n"
               "                allocation (default derived from\n"
               "                PUPPIES_MAX_PIXELS: 3 bytes/pixel + 1 MiB)\n"
               "  --restart-interval N  MCUs per restart segment for every\n"
               "                serving-side encode (default 64); 0 disables\n"
               "                restart markers\n"
               "  --backend B   memory (default), disk (content-addressed\n"
               "                blobs under --dir), or replicated (R-way\n"
               "                replication over --shards disk shards under\n"
               "                --dir, with failover reads + read-repair)\n"
               "  --shards/--replicas/--quorum/--hot-bytes/--gc-grace/\n"
               "  --scrub-interval-ms/--scrub-budget-bytes   replicated-store\n"
               "                knobs (DESIGN.md \xc2\xa7" "14); the scrub pair arms\n"
               "                the background anti-entropy scheduler\n"
               "  --port-file PATH   write the bound port to PATH once\n"
               "                listening (scripts wait on this)\n"
               "  dispatcher threads follow the global --threads flag;\n"
               "  SIGINT/SIGTERM drains in-flight requests, flushes metrics\n"
               "  to stderr as JSON, then exits 0\n");
  std::exit(2);
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + path);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, std::span<const std::uint8_t> data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) throw Error("write failed: " + path);
}

SecretKey read_key(const std::string& path) {
  const Bytes raw = read_file(path);
  std::string hex;
  for (std::uint8_t b : raw)
    if (!std::isspace(b)) hex.push_back(static_cast<char>(b));
  return SecretKey::from_hex(hex);
}

Rect parse_roi(const std::string& spec) {
  Rect r;
  if (std::sscanf(spec.c_str(), "%d,%d,%d,%d", &r.x, &r.y, &r.w, &r.h) != 4 ||
      r.empty())
    usage("bad --roi, expected x,y,w,h");
  return r;
}

core::Scheme parse_scheme(const std::string& s) {
  if (s == "N") return core::Scheme::kNaive;
  if (s == "B") return core::Scheme::kBase;
  if (s == "C") return core::Scheme::kCompression;
  if (s == "Z") return core::Scheme::kZero;
  usage("bad --scheme, expected N|B|C|Z");
}

core::PrivacyLevel parse_level(const std::string& s) {
  if (s == "low") return core::PrivacyLevel::kLow;
  if (s == "medium") return core::PrivacyLevel::kMedium;
  if (s == "high") return core::PrivacyLevel::kHigh;
  usage("bad --level, expected low|medium|high");
}

synth::Dataset parse_dataset(const std::string& s) {
  for (const synth::Dataset d : synth::all_datasets())
    if (s == synth::profile(d).name) return d;
  usage("bad dataset, expected caltech|feret|inria|pascal");
}

int cmd_generate(const std::vector<std::string>& args) {
  if (args.size() != 3) usage("generate needs <dataset> <index> <out.ppm>");
  const synth::SceneImage scene =
      synth::generate(parse_dataset(args[0]), std::stoi(args[1]));
  write_ppm(args[2], scene.image);
  std::printf("wrote %s (%dx%d, %zu ground-truth faces)\n", args[2].c_str(),
              scene.image.width(), scene.image.height(), scene.faces.size());
  return 0;
}

int cmd_keygen(const std::vector<std::string>& args) {
  if (args.size() != 1) usage("keygen needs <out.key>");
  std::random_device rd;  // the one place real entropy enters the CLI
  Rng rng((static_cast<std::uint64_t>(rd()) << 32) ^ rd());
  const SecretKey key = SecretKey::generate(rng);
  const std::string hex = key.to_hex() + "\n";
  write_file(args[0], Bytes(hex.begin(), hex.end()));
  std::printf("wrote %s (id %s)\n", args[0].c_str(), key.id().c_str());
  return 0;
}

jpeg::HuffmanMode parse_optimize(const std::string& v) {
  if (v == "on") return jpeg::HuffmanMode::kOptimized;
  if (v == "off") return jpeg::HuffmanMode::kStandard;
  usage("bad --optimize, expected on|off");
}

int cmd_protect(std::vector<std::string> args) {
  std::vector<Rect> rois;
  bool auto_detect = false;
  std::string key_path;
  core::Scheme scheme = core::Scheme::kCompression;
  core::PrivacyLevel level = core::PrivacyLevel::kMedium;
  int quality = 75;
  jpeg::ChromaMode chroma = jpeg::ChromaMode::k444;
  jpeg::HuffmanMode huffman = jpeg::HuffmanMode::kOptimized;

  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= args.size()) usage(("missing value after " + a).c_str());
      return args[++i];
    };
    if (a == "--roi")
      rois.push_back(parse_roi(next()));
    else if (a == "--auto")
      auto_detect = true;
    else if (a == "--key")
      key_path = next();
    else if (a == "--scheme")
      scheme = parse_scheme(next());
    else if (a == "--level")
      level = parse_level(next());
    else if (a == "--quality")
      quality = std::stoi(next());
    else if (a == "--chroma")
      chroma = next() == "420" ? jpeg::ChromaMode::k420 : jpeg::ChromaMode::k444;
    else if (a == "--optimize")
      huffman = parse_optimize(next());
    else
      positional.push_back(a);
  }
  if (positional.size() != 3) usage("protect needs <in.ppm> <out.jpg> <out.pub>");
  if (key_path.empty()) usage("protect needs --key");

  const RgbImage image = read_ppm(positional[0]);
  if (auto_detect) {
    const std::vector<Rect> recommended = roi::recommend(image);
    rois.insert(rois.end(), recommended.begin(), recommended.end());
    std::printf("auto-detected %zu ROIs\n", recommended.size());
  }
  if (rois.empty()) usage("no ROIs: pass --roi or --auto");

  const SecretKey key = read_key(key_path);
  std::vector<core::RoiPolicy> policies;
  for (const Rect& r : rois)
    policies.push_back(core::RoiPolicy{r, key, scheme, level});

  // Chunked forward transform: the float YCbCr intermediate never exists
  // whole-image; scratch is bounded by --chunk-rows (jpeg/chunk.h).
  const jpeg::CoefficientImage original =
      jpeg::forward_transform_chunked(image, quality, chroma);
  const core::ProtectResult result = core::protect(original, policies);
  jpeg::EncodeOptions eo;
  eo.huffman = huffman;
  write_file(positional[1], jpeg::serialize(result.perturbed, eo));
  write_file(positional[2], result.params.serialize());
  std::printf("wrote %s + %s (%zu ROIs, scheme %s, key id %s)\n",
              positional[1].c_str(), positional[2].c_str(),
              result.params.rois.size(),
              std::string(core::to_string(scheme)).c_str(), key.id().c_str());
  return 0;
}

int cmd_recover(std::vector<std::string> args) {
  core::KeyRing ring;
  std::vector<std::string> positional;
  int keys = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--key") {
      if (i + 1 >= args.size()) usage("missing value after --key");
      ring.add(read_key(args[++i]));
      ++keys;
    } else {
      positional.push_back(args[i]);
    }
  }
  if (positional.size() != 3) usage("recover needs <in.jpg> <in.pub> <out.ppm>");

  const jpeg::CoefficientImage shared = jpeg::parse(read_file(positional[0]));
  const core::PublicParameters params =
      core::PublicParameters::parse(read_file(positional[1]));
  const jpeg::CoefficientImage recovered = core::recover(shared, params, ring);
  write_ppm(positional[2], jpeg::decode_to_rgb(recovered));

  int recovered_rois = 0;
  for (const core::ProtectedRoi& roi : params.rois)
    if (ring.find_set(roi.matrix_id, roi.matrix_count).has_value())
      ++recovered_rois;
  std::printf("wrote %s (%d keys, %d of %zu ROIs recovered)\n",
              positional[2].c_str(), keys, recovered_rois,
              params.rois.size());
  return 0;
}

int cmd_recompress(std::vector<std::string> args) {
  int quality = 0;  // 0 = keep the input's quantization as-is
  int restart = 0;
  jpeg::HuffmanMode huffman = jpeg::HuffmanMode::kOptimized;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= args.size()) usage(("missing value after " + a).c_str());
      return args[++i];
    };
    if (a == "--quality")
      quality = std::stoi(next());
    else if (a == "--restart")
      restart = std::stoi(next());
    else if (a == "--optimize")
      huffman = parse_optimize(next());
    else
      positional.push_back(a);
  }
  if (positional.size() != 2) usage("recompress needs <in.jpg> <out.jpg>");

  const Bytes input = read_file(positional[0]);
  jpeg::CoefficientImage img = jpeg::parse(input);
  if (quality != 0) img = jpeg::requantize(img, quality);

  jpeg::EncodeOptions eo;
  eo.huffman = huffman;
  eo.restart_interval = restart;
  jpeg::EncodeStats stats;
  const Bytes output = jpeg::serialize(img, eo, nullptr, &stats);
  write_file(positional[1], output);
  std::printf(
      "wrote %s (%zu -> %zu bytes, entropy %zu bytes, optimized tables "
      "saved %zu bytes)\n",
      positional[1].c_str(), input.size(), output.size(),
      stats.entropy_bytes, stats.saved_bytes);
  return 0;
}

int cmd_inspect(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 2) usage("inspect needs <in.jpg> [<in.pub>]");
  const Bytes data = read_file(args[0]);
  std::printf("%s", jpeg::describe_stream(data).c_str());
  if (args.size() == 2) {
    const core::PublicParameters params =
        core::PublicParameters::parse(read_file(args[1]));
    std::printf("\npublic parameters: %dx%d, %d components, chroma %s\n",
                params.width, params.height, params.components,
                params.chroma == jpeg::ChromaMode::k420 ? "4:2:0" : "4:4:4");
    for (const core::ProtectedRoi& roi : params.rois)
      std::printf(
          "  roi %u %s scheme %s mR=%d K=%d matrices %d (id %s), "
          "ZInd %zu, WInd %zu\n",
          roi.id, roi.rect.to_string().c_str(),
          std::string(core::to_string(roi.scheme)).c_str(), roi.params.mR,
          roi.params.K, roi.matrix_count, roi.matrix_id.c_str(),
          roi.zind.size(), roi.wind.size());
  }
  return 0;
}

int cmd_attack(std::vector<std::string> args) {
  std::string method = "inference";
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--method") {
      if (i + 1 >= args.size()) usage("missing value after --method");
      method = args[++i];
    } else {
      positional.push_back(args[i]);
    }
  }
  if (positional.size() != 3) usage("attack needs <in.jpg> <in.pub> <out.ppm>");

  const jpeg::CoefficientImage shared = jpeg::parse(read_file(positional[0]));
  const core::PublicParameters params =
      core::PublicParameters::parse(read_file(positional[1]));
  if (params.rois.empty()) throw Error("no protected ROIs to attack");

  RgbImage guess;
  if (method == "inference") {
    guess = attacks::matrix_inference_attack(shared, params);
  } else if (method == "inpaint") {
    guess = jpeg::decode_to_rgb(shared);
    for (const core::ProtectedRoi& roi : params.rois)
      guess = attacks::inpaint_attack(guess, roi.rect);
  } else if (method == "pca") {
    guess = jpeg::decode_to_rgb(shared);
    for (const core::ProtectedRoi& roi : params.rois)
      guess = attacks::pca_attack(guess, roi.rect, 8);
  } else {
    usage("bad --method, expected inference|inpaint|pca");
  }
  write_ppm(positional[2], guess);
  std::printf("wrote %s (attacker's best effort via %s)\n",
              positional[2].c_str(), method.c_str());
  return 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

int cmd_store(std::vector<std::string> args) {
  std::string dir;
  bool json = false;
  bool repair = false;
  int shards = 0;
  store::ReplicationConfig repl_cfg;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    auto next = [&]() -> std::string {
      if (i + 1 >= args.size())
        usage(("missing value after " + args[i]).c_str());
      return args[++i];
    };
    if (args[i] == "--dir") {
      dir = next();
    } else if (args[i] == "--json") {
      json = true;
    } else if (args[i] == "--repair") {
      repair = true;
    } else if (args[i] == "--shards") {
      shards = std::stoi(next());
    } else if (args[i] == "--replicas") {
      repl_cfg.replicas = std::stoi(next());
    } else if (args[i] == "--quorum") {
      repl_cfg.write_quorum = std::stoi(next());
    } else if (args[i] == "--gc-grace") {
      repl_cfg.gc_grace_ops =
          static_cast<std::uint64_t>(std::stoull(next()));
    } else {
      positional.push_back(args[i]);
    }
  }
  if (dir.empty()) {
    const char* env = std::getenv("PUPPIES_DATA_DIR");
    dir = env && *env ? env : "puppies_data";
  }
  if (positional.empty()) usage("store needs put|get|stats|scrub|gc");
  const std::string sub = positional[0];
  positional.erase(positional.begin());
  // --shards N opens the replicated composite over N disk shards under
  // --dir (same layout `serve --backend replicated` uses); otherwise the
  // plain single-directory disk store.
  std::unique_ptr<store::BlobStore> blobs;
  store::ReplicatedStore* repl = nullptr;
  if (shards > 0) {
    auto replicated = store::open_replicated_disk_store(dir, shards, repl_cfg);
    repl = replicated.get();
    blobs = std::move(replicated);
  } else {
    blobs = store::open_disk_store(dir);
  }

  if (sub == "put") {
    if (positional.empty()) usage("store put needs <file>...");
    for (const std::string& path : positional) {
      const Digest d = blobs->put(read_file(path));
      std::printf("%s  %s\n", d.to_hex().c_str(), path.c_str());
    }
    if (repl) repl->flush_repairs();
    return 0;
  }
  if (sub == "get") {
    if (positional.size() != 2) usage("store get needs <digest> <out>");
    const Bytes data = blobs->get(Digest::from_hex(positional[0]));
    write_file(positional[1], data);
    std::printf("wrote %s (%zu bytes)\n", positional[1].c_str(), data.size());
    return 0;
  }
  if (sub == "stats") {
    if (!positional.empty()) usage("store stats takes no extra arguments");
    std::string backends_json;
    if (repl) {
      static const char* kHealthNames[] = {"up", "degraded", "quarantined"};
      for (std::size_t b = 0; b < repl->backend_count(); ++b) {
        backends_json += backends_json.empty() ? "\"" : ", \"";
        backends_json +=
            kHealthNames[static_cast<int>(repl->backend_health(b))];
        backends_json += "\"";
      }
    }
    if (json) {
      std::printf("{\"dir\": \"%s\", \"blobs\": %zu, \"bytes\": %zu,\n"
                  "\"backend_health\": [%s],\n"
                  "\"simd_tier\": \"%.*s\",\n"
                  "\"metrics\": %s}\n",
                  json_escape(dir).c_str(), blobs->count(),
                  blobs->total_bytes(), backends_json.c_str(),
                  static_cast<int>(
                      kernels::to_string(kernels::active_tier()).size()),
                  kernels::to_string(kernels::active_tier()).data(),
                  metrics::dump_json().c_str());
    } else {
      std::printf("%s: %zu blobs, %zu bytes (simd: %.*s)\n", dir.c_str(),
                  blobs->count(), blobs->total_bytes(),
                  static_cast<int>(
                      kernels::to_string(kernels::active_tier()).size()),
                  kernels::to_string(kernels::active_tier()).data());
      if (repl)
        std::printf("  replicated: %zu backends [%s]\n", repl->backend_count(),
                    backends_json.c_str());
    }
    return 0;
  }
  if (sub == "gc") {
    if (!positional.empty()) usage("store gc takes no extra arguments");
    if (!repl) usage("store gc needs --shards N (replicated store only)");
    const store::GcReport r = repl->gc();
    if (json) {
      std::printf("{\"dir\": \"%s\", \"tracked\": %zu, \"orphaned\": %zu,\n"
                  "\"reclaimed\": %zu, \"reclaimed_bytes\": %zu}\n",
                  json_escape(dir).c_str(), r.tracked, r.orphaned, r.reclaimed,
                  r.reclaimed_bytes);
    } else {
      std::printf("%s: gc tracked %zu digests, %zu aging orphans, reclaimed "
                  "%zu (%zu bytes)\n",
                  dir.c_str(), r.tracked, r.orphaned, r.reclaimed,
                  r.reclaimed_bytes);
    }
    return 0;
  }
  if (sub == "scrub") {
    if (!positional.empty()) usage("store scrub takes no extra arguments");
    const store::ScrubReport r = blobs->scrub(repair);
    if (json) {
      std::printf("{\"dir\": \"%s\", \"checked\": %zu, \"ok\": %zu,\n"
                  "\"quarantined\": [",
                  json_escape(dir).c_str(), r.checked, r.ok);
      for (std::size_t i = 0; i < r.quarantined.size(); ++i)
        std::printf("%s\"%s\"", i ? ", " : "",
                    r.quarantined[i].to_hex().c_str());
      std::printf("],\n\"tmp_removed\": %zu, \"quarantine_purged\": %zu,\n"
                  "\"skipped_quarantined\": %zu, \"bytes_scanned\": %zu,\n"
                  "\"repaired\": %zu, \"repaired_bytes\": %zu}\n",
                  r.tmp_removed, r.quarantine_purged, r.skipped_quarantined,
                  r.bytes_scanned, r.repaired, r.repaired_bytes);
    } else {
      std::printf("%s: scrubbed %zu blobs, %zu ok, %zu quarantined, "
                  "%zu skipped (already quarantined)\n",
                  dir.c_str(), r.checked, r.ok, r.quarantined.size(),
                  r.skipped_quarantined);
      for (const Digest& d : r.quarantined)
        std::printf("  quarantined %s\n", d.to_hex().c_str());
      if (r.repaired)
        std::printf("  repaired %zu divergent replicas (%zu bytes)\n",
                    r.repaired, r.repaired_bytes);
      if (repair)
        std::printf("  repair: removed %zu tmp files, purged %zu from "
                    "quarantine\n",
                    r.tmp_removed, r.quarantine_purged);
    }
    return r.quarantined.empty() ? 0 : 1;
  }
  usage(("unknown store subcommand: " + sub).c_str());
}

/// SIGINT/SIGTERM request a graceful drain; the handler only sets a flag
/// (async-signal-safe), the serve loop does the actual shutdown.
volatile std::sig_atomic_t g_stop_requested = 0;
extern "C" void handle_stop_signal(int) { g_stop_requested = 1; }

int cmd_serve(std::vector<std::string> args) {
  net::ServerConfig config;
  std::string port_file;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= args.size()) usage(("missing value after " + a).c_str());
      return args[++i];
    };
    if (a == "--port")
      config.port = static_cast<std::uint16_t>(std::stoi(next()));
    else if (a == "--host")
      config.host = next();
    else if (a == "--max-inflight")
      config.max_inflight = std::stoi(next());
    else if (a == "--deadline-ms")
      config.deadline_ms = std::stoi(next());
    else if (a == "--max-request-bytes")
      config.max_request_bytes = std::stoull(next());
    else if (a == "--restart-interval")
      config.psp.restart_interval = std::stoi(next());
    else if (a == "--backend") {
      const std::string b = next();
      if (b == "memory")
        config.psp.backend = psp::StoreBackend::kMemory;
      else if (b == "disk")
        config.psp.backend = psp::StoreBackend::kDisk;
      else if (b == "replicated")
        config.psp.backend = psp::StoreBackend::kReplicated;
      else
        usage("bad --backend, expected memory|disk|replicated");
    } else if (a == "--dir")
      config.psp.data_dir = next();
    else if (a == "--shards")
      config.psp.shard_count = std::stoi(next());
    else if (a == "--replicas")
      config.psp.replication.replicas = std::stoi(next());
    else if (a == "--quorum")
      config.psp.replication.write_quorum = std::stoi(next());
    else if (a == "--hot-bytes")
      config.psp.replication.hot_bytes = std::stoull(next());
    else if (a == "--gc-grace")
      config.psp.replication.gc_grace_ops =
          static_cast<std::uint64_t>(std::stoull(next()));
    else if (a == "--scrub-interval-ms")
      config.psp.replication.scrub_interval_ms = std::stoi(next());
    else if (a == "--scrub-budget-bytes")
      config.psp.replication.scrub_budget_bytes = std::stoull(next());
    else if (a == "--port-file")
      port_file = next();
    else
      usage(("unknown serve option: " + a).c_str());
  }
  if (config.max_inflight <= 0) usage("--max-inflight must be positive");
  if (config.deadline_ms <= 0) usage("--deadline-ms must be positive");

  net::Server server(config);
  server.start();
  std::printf("listening on %s:%u (dispatcher threads %d, max inflight %d, "
              "deadline %d ms, request cap %zu bytes, backend %s)\n",
              server.host().c_str(), server.port(), exec::thread_count(),
              config.max_inflight, config.deadline_ms,
              net::resolve_max_request_bytes(config),
              config.psp.backend == psp::StoreBackend::kDisk ? "disk"
              : config.psp.backend == psp::StoreBackend::kReplicated
                  ? "replicated"
                  : "memory");
  std::fflush(stdout);
  if (!port_file.empty()) {
    // Written after listen succeeds: a script that waits for this file can
    // connect the moment it appears.
    const std::string text = std::to_string(server.port()) + "\n";
    write_file(port_file, Bytes(text.begin(), text.end()));
  }

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  while (!g_stop_requested)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::fprintf(stderr, "draining...\n");
  server.shutdown();
  // Flush the metrics registry so a terminated server still leaves its
  // serving profile behind.
  std::fprintf(stderr, "%s", metrics::dump_json().c_str());
  std::printf("drained; served %llu requests\n",
              static_cast<unsigned long long>(server.requests_seen()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string command;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc) usage("missing value after --threads");
      const int n = std::atoi(argv[++i]);
      if (n <= 0) usage("bad --threads, expected a positive integer");
      exec::configure(exec::Config{n});
    } else if (std::strcmp(argv[i], "--simd") == 0) {
      if (i + 1 >= argc) usage("missing value after --simd");
      try {
        kernels::configure(kernels::parse_tier(argv[++i]));
      } catch (const std::exception& e) {
        usage(e.what());
      }
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      if (i + 1 >= argc) usage("missing value after --faults");
      try {
        fault::arm_spec(argv[++i]);
      } catch (const std::exception& e) {
        usage(e.what());
      }
    } else if (std::strcmp(argv[i], "--chunk-rows") == 0) {
      if (i + 1 >= argc) usage("missing value after --chunk-rows");
      const int n = std::atoi(argv[++i]);
      if (n <= 0) usage("bad --chunk-rows, expected a positive integer");
      jpeg::set_default_chunk_mcu_rows(n);
    } else if (command.empty()) {
      command = argv[i];
    } else {
      args.emplace_back(argv[i]);
    }
  }
  if (command.empty()) usage();
  try {
    if (command == "generate") return cmd_generate(args);
    if (command == "keygen") return cmd_keygen(args);
    if (command == "protect") return cmd_protect(args);
    if (command == "recover") return cmd_recover(args);
    if (command == "recompress") return cmd_recompress(args);
    if (command == "inspect") return cmd_inspect(args);
    if (command == "attack") return cmd_attack(args);
    if (command == "store") return cmd_store(args);
    if (command == "serve") return cmd_serve(args);
    usage(("unknown command: " + command).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
