#include "replay.h"

#include <algorithm>
#include <exception>
#include <map>
#include <optional>
#include <thread>

#include "puppies/common/digest.h"
#include "puppies/common/error.h"
#include "puppies/jpeg/chunk.h"
#include "puppies/jpeg/codec.h"
#include "puppies/net/protocol.h"
#include "puppies/store/blob_store.h"
#include "puppies/store/transform_cache.h"
#include "stats.h"

namespace servebench {

using namespace puppies;

namespace {

DownloadDigest digest_of(const psp::Download& d) {
  net::DownloadReply reply;
  reply.mode = d.mode;
  reply.jfif = d.jfif;
  reply.public_params = d.public_params;
  reply.chain = d.chain;
  const Bytes payload = net::encode_download_reply(reply);
  return {payload.size(), hash64(payload)};
}

/// The PspService's per-request work, redone through the layer APIs it
/// calls, one span per call. Mirrors PspService (psp.cpp) under the
/// default PspConfig: parse + store put on upload; a transform-cache
/// get_or_compute around the lossless or pixel pipeline on apply; the
/// cached bytes or a store get on download. check() holds the mirror to
/// the service's output after every request.
class StageReplay {
 public:
  explicit StageReplay(Trace& trace)
      : trace_(trace), blobs_(store::open_memory_store()), cache_(cfg_.cache_bytes) {}

  void upload(std::uint64_t rid, int image, const Bytes& jfif) {
    State& s = images_[image];
    {
      Trace::Scope span(trace_, rid, "jpeg.parse");
      s.parsed = jpeg::parse(jfif, nullptr, &s.src);
    }
    hash(rid, jfif);
    Trace::Scope span(trace_, rid, "store.put");
    s.digest = blobs_->put(jfif);
  }

  void apply(std::uint64_t rid, const Request& r) {
    State& s = images_.at(r.image);
    const bool quality_relevant = r.mode == psp::DeliveryMode::kClampedReencode;
    Trace::Scope span(trace_, rid, "store.cache");
    const Digest key = store::transform_cache_key(
        s.digest, r.chain, static_cast<std::uint8_t>(r.mode), r.quality,
        quality_relevant, static_cast<std::uint8_t>(cfg_.huffman),
        cfg_.restart_interval);
    s.transformed = cache_.get_or_compute(key, [&] { return compute(rid, s, r); });
  }

  void download(std::uint64_t rid, int image) {
    State& s = images_.at(image);
    if (s.transformed) return;  // served from the retained result
    Trace::Scope span(trace_, rid, "store.get");
    sink_ ^= static_cast<std::uint8_t>(blobs_->get(s.digest).size());
  }

  /// Throws unless the re-run holds what the service holds for `image`:
  /// the same upload digest, and byte for byte what a download serves
  /// (the transformed JPEG, or the stored upload). Run after every request,
  /// outside its spans, so a change to PspService's paths that the re-run
  /// does not follow fails the traced run instead of timing other code.
  void check(int image, const Digest& digest, const psp::Download& served) {
    const State& s = images_.at(image);
    require(s.digest == digest, "stage replay: upload digest differs from the service's");
    const Bytes own = s.transformed ? s.transformed->jfif : blobs_->get(s.digest);
    require(own == served.jfif, "stage replay: bytes differ from what the service serves");
  }

  void release(int image) { images_.erase(image); }

 private:
  struct State {
    jpeg::CoefficientImage parsed;
    jpeg::ScanSource src;
    Digest digest;
    store::TransformCache::ResultPtr transformed;
  };

  /// The digest the store computes over a blob on put, timed on its own
  /// (the store call includes it).
  void hash(std::uint64_t rid, const Bytes& data) {
    Trace::Scope span(trace_, rid, "common.sha256");
    sink_ ^= sha256(data).bytes[0];
  }

  store::TransformResult compute(std::uint64_t rid, const State& s,
                                 const Request& r) {
    jpeg::EncodeOptions eo;
    eo.huffman = cfg_.huffman;
    eo.restart_interval = cfg_.restart_interval;
    jpeg::ChunkOptions copt;
    copt.mcu_rows = cfg_.chunk_mcu_rows;
    store::TransformResult out;
    const bool lossless = std::all_of(r.chain.begin(), r.chain.end(),
                                      [](const transform::Step& st) { return st.lossless(); });
    if (lossless && r.mode == psp::DeliveryMode::kCoefficients) {
      jpeg::DirtyMcuSet dirty;
      jpeg::CoefficientImage img;
      {
        Trace::Scope span(trace_, rid, "transform.lossless");
        img = transform::apply_lossless(r.chain, s.parsed, &dirty);
      }
      Trace::Scope span(trace_, rid, "jpeg.serialize");
      out.jfif = jpeg::serialize_delta(img, eo, s.src, dirty);
      return out;
    }
    if (transform::canonicalize(r.chain).empty()) {
      Trace::Scope span(trace_, rid, "jpeg.recompress");
      out.jfif = jpeg::recompress_delta_chunked(s.parsed, s.src, r.quality, eo, copt);
      return out;
    }
    YccImage pixels;
    {
      Trace::Scope span(trace_, rid, "jpeg.inverse");
      pixels = jpeg::inverse_transform(s.parsed);
    }
    {
      Trace::Scope span(trace_, rid, "transform.pixel");
      pixels = transform::apply(r.chain, std::move(pixels));
    }
    jpeg::ScanIndex scan;
    jpeg::CoefficientImage coeffs;
    {
      Trace::Scope span(trace_, rid, "jpeg.forward");
      coeffs = jpeg::forward_transform_clamped_chunked(pixels, r.quality,
                                                       eo.chroma, copt, &scan);
    }
    Trace::Scope span(trace_, rid, "jpeg.serialize");
    out.jfif = jpeg::serialize(coeffs, eo, &scan);
    return out;
  }

  const psp::PspConfig cfg_;  ///< the defaults `puppies serve` runs with
  Trace& trace_;
  std::unique_ptr<store::BlobStore> blobs_;
  store::TransformCache cache_;
  std::map<int, State> images_;
  std::uint8_t sink_ = 0;
};

/// Times the wire payload codecs a request goes through: the client's
/// request encode, the server's request parse, the server's reply encode
/// and the client's reply parse.
void payload_codec(Trace& trace, std::uint64_t rid, const Request& r,
                   const Upload& up, const std::string& id,
                   const psp::Download* down) {
  Trace::Scope span(trace, rid, "net.payload_codec");
  switch (r.op) {
    case Op::kUpload: {
      const Bytes req = net::encode_upload({up.jfif, up.params});
      (void)net::parse_upload(req);
      (void)net::parse_text(net::encode_text(id));
      break;
    }
    case Op::kApply: {
      const Bytes req = net::encode_apply({id, r.mode, r.quality, r.chain});
      (void)net::parse_apply(req);
      break;
    }
    case Op::kDownload: {
      (void)net::parse_download(net::encode_download({id}));
      net::DownloadReply reply{down->mode, down->jfif, down->public_params,
                               down->chain};
      (void)net::parse_download_reply(net::encode_download_reply(reply));
      break;
    }
  }
}

const char* psp_span_name(Op op) {
  switch (op) {
    case Op::kUpload: return "psp.upload";
    case Op::kApply: return "psp.apply";
    case Op::kDownload: return "psp.download";
  }
  return "psp.?";
}

}  // namespace

std::vector<std::vector<DownloadDigest>> replay(const Plan& plan,
                                                const Corpus& corpus,
                                                Trace* trace) {
  psp::PspService service;
  std::vector<std::string> ids(plan.images.size());
  std::unique_ptr<StageReplay> stages;
  if (trace) stages = std::make_unique<StageReplay>(*trace);

  // Set-up, untraced: uploads then derivative applies, connection by
  // connection (they touch disjoint images, so order does not matter).
  for (const ConnectionPlan& cp : plan.conns) {
    for (int img : cp.setup_uploads) {
      const Upload& up = corpus.upload(img);
      const std::string& id = ids[static_cast<std::size_t>(img)] =
          service.upload(up.jfif, up.params);
      if (stages) {
        stages->upload(0, img, up.jfif);
        stages->check(img, service.digest_of(id), service.download(id));
      }
    }
  }
  for (const ConnectionPlan& cp : plan.conns)
    for (const Request& r : cp.setup_applies) {
      const std::string& id = ids[static_cast<std::size_t>(r.image)];
      service.apply_transform(id, r.chain, r.mode, r.quality);
      if (stages) {
        stages->apply(0, r);
        stages->check(r.image, service.digest_of(id), service.download(id));
      }
    }
  if (trace) trace->clear();

  // Owned images are released after their owner's last request for them.
  std::vector<std::map<int, std::size_t>> last_use(plan.conns.size());
  for (std::size_t c = 0; c < plan.conns.size(); ++c)
    for (std::size_t i = 0; i < plan.conns[c].timed.size(); ++i) {
      const int img = plan.conns[c].timed[i].image;
      if (plan.images[static_cast<std::size_t>(img)].owner >= 0) last_use[c][img] = i;
    }

  std::vector<std::vector<DownloadDigest>> expect(plan.conns.size());
  auto run_conn = [&](std::size_t c) {
    const ConnectionPlan& cp = plan.conns[c];
    expect[c].resize(cp.timed.size());
    for (std::size_t i = 0; i < cp.timed.size(); ++i) {
      const Request& r = cp.timed[i];
      const Upload& up = corpus.upload(r.image);
      std::string& id = ids[static_cast<std::size_t>(r.image)];
      const std::uint64_t rid = request_id(static_cast<int>(c), i);
      std::optional<Trace::Scope> root;
      if (trace) root.emplace(*trace, rid, "request");
      psp::Download down;
      {
        std::optional<Trace::Scope> span;
        if (trace) span.emplace(*trace, rid, psp_span_name(r.op));
        switch (r.op) {
          case Op::kUpload: id = service.upload(up.jfif, up.params); break;
          case Op::kApply: service.apply_transform(id, r.chain, r.mode, r.quality); break;
          case Op::kDownload: down = service.download(id); break;
        }
      }
      if (r.op == Op::kDownload) expect[c][i] = digest_of(down);
      if (trace) {
        payload_codec(*trace, rid, r, up, id, &down);
        {
          Trace::Scope span(*trace, rid, "stages");
          switch (r.op) {
            case Op::kUpload: stages->upload(rid, r.image, up.jfif); break;
            case Op::kApply: stages->apply(rid, r); break;
            case Op::kDownload: stages->download(rid, r.image); break;
          }
        }
        root.reset();
        stages->check(r.image, service.digest_of(id),
                      r.op == Op::kDownload ? down : service.download(id));
      }
      const auto last = last_use[c].find(r.image);
      if (last != last_use[c].end() && last->second == i) {
        service.remove(id);
        if (stages) stages->release(r.image);
      }
    }
  };
  if (trace) {
    for (std::size_t c = 0; c < plan.conns.size(); ++c) run_conn(c);
  } else {
    std::vector<std::exception_ptr> errors(plan.conns.size());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < plan.conns.size(); ++c)
      threads.emplace_back([&, c] {
        try {
          run_conn(c);
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    for (std::thread& t : threads) t.join();
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
  }
  return expect;
}

}  // namespace servebench
