// Wire-layer suite for puppies::net (DESIGN.md §12).
//
// Framing differentials (round trip under arbitrary chunking, truncation,
// garbage, oversized-frame skip with bounded buffering), payload codecs,
// loopback byte-identity against an identically-configured in-process
// PspService, concurrent-client hammering (the TSan target), BUSY
// backpressure under a tiny max_inflight, deadline expiry, graceful-drain
// no-drop, the net.* fault points, and the metrics percentile export.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "puppies/common/rng.h"
#include "puppies/core/pipeline.h"
#include "puppies/fault/fault.h"
#include "puppies/jpeg/codec.h"
#include "puppies/metrics/metrics.h"
#include "puppies/net/client.h"
#include "puppies/net/server.h"
#include "puppies/synth/synth.h"

namespace puppies::net {
namespace {

using psp::DeliveryMode;

// ---- corpus ---------------------------------------------------------------

struct TestImage {
  Bytes jfif;
  Bytes params;
};

/// A small perturbed upload (protected ROI, like real traffic).
TestImage make_image(int seed, int w = 96, int h = 64) {
  const synth::SceneImage scene =
      synth::generate(synth::Dataset::kPascal, seed, w, h);
  const jpeg::CoefficientImage original =
      jpeg::forward_transform(rgb_to_ycc(scene.image), 75);
  const SecretKey key = SecretKey::from_label("net/img" + std::to_string(seed));
  const core::ProtectResult shared = core::protect(
      original,
      {core::RoiPolicy{Rect{8, 8, 32, 24}, key, core::Scheme::kCompression,
                       core::PrivacyLevel::kMedium}});
  return {jpeg::serialize(shared.perturbed), shared.params.serialize()};
}

const std::vector<TestImage>& corpus() {
  static const std::vector<TestImage> c = [] {
    std::vector<TestImage> v;
    for (int i = 0; i < 4; ++i) v.push_back(make_image(30 + i));
    return v;
  }();
  return c;
}

Client connect_to(const Server& server) {
  Client c;
  c.connect(server.host(), server.port());
  return c;
}

void wait_until(const std::function<bool()>& cond, int budget_ms = 10000) {
  const auto t0 = std::chrono::steady_clock::now();
  while (!cond()) {
    const double waited_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
    ASSERT_LT(waited_ms, budget_ms) << "condition not reached in time";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---- framing --------------------------------------------------------------

TEST(Frame, RoundTripUnderEveryChunking) {
  Bytes payload;
  for (int i = 0; i < 300; ++i)
    payload.push_back(static_cast<std::uint8_t>(i * 7));
  const Bytes wire =
      encode_frame(Op::kUpload, 0x1122334455667788ull, 250, payload);
  // Split the stream at every boundary.
  for (std::size_t split = 0; split < wire.size(); ++split) {
    FrameAssembler a(1 << 20);
    a.feed(std::span(wire).first(split));
    EXPECT_FALSE(a.take().has_value()) << "frame before byte " << split;
    a.feed(std::span(wire).subspan(split));
    auto f = a.take();
    ASSERT_TRUE(f.has_value()) << "split " << split;
    EXPECT_EQ(f->header.type, static_cast<std::uint8_t>(Op::kUpload));
    EXPECT_EQ(f->header.request_id, 0x1122334455667788ull);
    EXPECT_EQ(f->header.deadline_ms, 250u);
    EXPECT_EQ(f->payload, payload);
    EXPECT_FALSE(f->oversized);
    EXPECT_FALSE(a.take().has_value());
  }
  // A byte at a time (the net.read.short regime).
  FrameAssembler a(1 << 20);
  for (const std::uint8_t b : wire) a.feed({&b, 1});
  ASSERT_TRUE(a.take().has_value());
}

TEST(Frame, TruncationNeverYieldsAFrame) {
  const Bytes wire = encode_frame(Op::kStats, 7, 0, Bytes(100, 0xab));
  for (std::size_t keep = 0; keep < wire.size(); ++keep) {
    FrameAssembler a(1 << 20);
    a.feed(std::span(wire).first(keep));
    EXPECT_FALSE(a.take().has_value()) << "keep " << keep;
  }
}

TEST(Frame, GarbagePoisonsTheAssembler) {
  const Bytes garbage(kHeaderBytes, 0x5a);
  FrameAssembler a(1 << 20);
  EXPECT_THROW(a.feed(garbage), ProtocolError);
  EXPECT_THROW(a.feed(garbage), ProtocolError);  // poisoned for good

  // Right magic, wrong version.
  Bytes wire = encode_frame(Op::kStats, 1, 0, {});
  wire[4] = 9;
  FrameAssembler b(1 << 20);
  EXPECT_THROW(b.feed(wire), ProtocolError);

  // Reserved field must be zero.
  wire = encode_frame(Op::kStats, 1, 0, {});
  wire[6] = 1;
  FrameAssembler c(1 << 20);
  EXPECT_THROW(c.feed(wire), ProtocolError);
}

TEST(Frame, OversizedPayloadSkippedWithBoundedBuffering) {
  FrameAssembler a(/*max_payload=*/64);
  const Bytes big(4096, 0xcd);
  const Bytes wire = encode_frame(Op::kUpload, 42, 0, big);
  // Feed in small chunks; buffered bytes must never exceed the header —
  // the oversized payload is discarded, not stored.
  for (std::size_t pos = 0; pos < wire.size(); pos += 13) {
    a.feed(std::span(wire).subspan(pos,
                                   std::min<std::size_t>(13, wire.size() - pos)));
    EXPECT_LE(a.buffered(), kHeaderBytes);
  }
  auto f = a.take();
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(f->oversized);
  EXPECT_TRUE(f->payload.empty());
  EXPECT_EQ(f->header.payload_len, big.size());
  EXPECT_EQ(f->header.request_id, 42u);

  // The stream re-synchronizes: a normal frame right behind parses fine.
  const Bytes ok = encode_frame(Op::kStats, 43, 0, Bytes(10, 1));
  a.feed(ok);
  f = a.take();
  ASSERT_TRUE(f.has_value());
  EXPECT_FALSE(f->oversized);
  EXPECT_EQ(f->header.request_id, 43u);
}

TEST(Frame, RandomDifferential) {
  Rng rng(0xfeedu);
  for (int round = 0; round < 50; ++round) {
    Bytes payload(rng.below(2001));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
    const std::uint64_t rid = rng.next();
    const Bytes wire = encode_frame(Op::kDownload, rid, 0, payload);
    FrameAssembler a(1 << 20);
    std::size_t pos = 0;
    while (pos < wire.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.below(96), wire.size() - pos);
      a.feed(std::span(wire).subspan(pos, n));
      pos += n;
    }
    auto f = a.take();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->header.request_id, rid);
    EXPECT_EQ(f->payload, payload);
  }
}

TEST(Frame, PayloadCodecsRoundTrip) {
  const UploadRequest u{corpus()[0].jfif, corpus()[0].params};
  const UploadRequest u2 = parse_upload(encode_upload(u));
  EXPECT_EQ(u2.jfif, u.jfif);
  EXPECT_EQ(u2.public_params, u.public_params);

  ApplyRequest a;
  a.id = "img-3";
  a.mode = DeliveryMode::kClampedReencode;
  a.quality = 77;
  a.chain = {transform::flip_h(), transform::rotate(90),
             transform::recompress(60)};
  const ApplyRequest a2 = parse_apply(encode_apply(a));
  EXPECT_EQ(a2.id, a.id);
  EXPECT_EQ(a2.mode, a.mode);
  EXPECT_EQ(a2.quality, a.quality);
  EXPECT_EQ(a2.chain, a.chain);

  // kLinearFloat never crosses the wire.
  a.mode = DeliveryMode::kLinearFloat;
  EXPECT_THROW(parse_apply(encode_apply(a)), InvalidArgument);

  DownloadReply d;
  d.mode = DeliveryMode::kCoefficients;
  d.jfif = corpus()[0].jfif;
  d.public_params = corpus()[0].params;
  d.chain = {transform::rotate(180)};
  const DownloadReply d2 = parse_download_reply(encode_download_reply(d));
  EXPECT_EQ(d2.mode, d.mode);
  EXPECT_EQ(d2.jfif, d.jfif);
  EXPECT_EQ(d2.public_params, d.public_params);
  EXPECT_EQ(d2.chain, d.chain);

  // Trailing bytes are rejected, not ignored.
  Bytes padded = encode_download(DownloadRequest{"img-0"});
  padded.push_back(0);
  EXPECT_THROW(parse_download(padded), ParseError);
}

// ---- metrics percentiles --------------------------------------------------

TEST(Metrics, PercentileExport) {
  metrics::Histogram h;
  // 90 fast observations and 10 slow ones: p50 sits in the fast bucket,
  // p99 in the slow one.
  for (int i = 0; i < 90; ++i) h.observe(0.3);
  for (int i = 0; i < 10; ++i) h.observe(40.0);
  EXPECT_GT(h.percentile(50), 0.25);
  EXPECT_LE(h.percentile(50), 0.5);
  EXPECT_GT(h.percentile(99), 25.0);
  EXPECT_LE(h.percentile(99), 50.0);
  const metrics::Histogram empty;
  EXPECT_EQ(empty.percentile(99), 0.0);

  metrics::histogram("net.test.percentiles").observe(1.0);
  const std::string dump = metrics::dump_json();
  EXPECT_NE(dump.find("\"p50_ms\""), std::string::npos);
  EXPECT_NE(dump.find("\"p90_ms\""), std::string::npos);
  EXPECT_NE(dump.find("\"p99_ms\""), std::string::npos);
}

// ---- loopback serving -----------------------------------------------------

TEST(Loopback, UploadApplyDownloadByteIdentity) {
  const ServerConfig config;
  Server server(config);
  server.start();
  Client client = connect_to(server);

  // Reference: an identically configured in-process PSP. Determinism of
  // the codec/transform stack makes its bytes the ground truth.
  psp::PspService ref(config.psp);

  std::vector<std::string> ids, ref_ids;
  for (const TestImage& img : corpus()) {
    ids.push_back(client.upload(img.jfif, img.params));
    ref_ids.push_back(ref.upload(img.jfif, img.params));
  }

  // Untransformed download: the stored bytes verbatim.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const DownloadReply d = client.download(ids[i]);
    EXPECT_EQ(d.mode, DeliveryMode::kCoefficients);
    EXPECT_EQ(d.jfif, corpus()[i].jfif);
    EXPECT_EQ(d.public_params, corpus()[i].params);
    EXPECT_TRUE(d.chain.empty());
  }

  // Transformed: the lossless coefficient chain and the clamped-reencode
  // pixel path, each against the reference service.
  const transform::Chain lossless{transform::flip_h(), transform::rotate(90)};
  const transform::Chain pixel{transform::scale(48, 32)};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const bool use_pixel = i % 2 == 1;
    const transform::Chain& chain = use_pixel ? pixel : lossless;
    const DeliveryMode mode =
        use_pixel ? DeliveryMode::kClampedReencode : DeliveryMode::kCoefficients;
    client.apply(ids[i], chain, mode, 80);
    ref.apply_transform(ref_ids[i], chain, mode, 80);
    const DownloadReply got = client.download(ids[i]);
    const psp::Download want = ref.download(ref_ids[i]);
    EXPECT_EQ(got.mode, want.mode);
    EXPECT_EQ(got.jfif, want.jfif) << "image " << i;
    EXPECT_EQ(got.chain, want.chain);
  }

  // stats flows over the wire and carries the new serving metrics.
  const std::string stats = client.stats_json();
  EXPECT_NE(stats.find("net.requests"), std::string::npos);
  EXPECT_NE(stats.find("net.op.download_ms"), std::string::npos);
  EXPECT_NE(stats.find("p99_ms"), std::string::npos);

  server.shutdown();
}

TEST(Loopback, ErrorsMapToStatuses) {
  const ServerConfig config;
  Server server(config);
  server.start();
  Client client = connect_to(server);

  // Unknown image id -> kBadRequest (InvalidArgument server-side).
  EXPECT_THROW(client.download("img-999"), RemoteError);
  // Unknown op -> kBadRequest, connection stays usable.
  EXPECT_EQ(client.call(static_cast<Op>(99), {}).status, Status::kBadRequest);
  // Malformed payload for a known op -> kBadRequest.
  EXPECT_EQ(client.call(Op::kDownload, Bytes{1, 2, 3}).status,
            Status::kBadRequest);
  // A non-JPEG upload fails with a clean error, not a dead connection...
  EXPECT_THROW(client.upload(Bytes(32, 0x11), {}), RemoteError);
  // ...and the same connection still serves afterwards.
  EXPECT_NE(client.stats_json().find("net.requests"), std::string::npos);

  // A crop whose x + w overflows int, in both wire delivery modes: a typed
  // refusal, not a crashed server.
  const std::string id = client.upload(corpus()[0].jfif, corpus()[0].params);
  const transform::Chain overflow{
      transform::crop_aligned(Rect{2147483640, 0, 8, 8})};
  for (const DeliveryMode mode :
       {DeliveryMode::kCoefficients, DeliveryMode::kClampedReencode})
    EXPECT_EQ(
        client.call(Op::kApply, encode_apply({id, mode, 80, overflow})).status,
        Status::kBadRequest);
  // A step its factory would refuse is refused when the payload parses.
  transform::Step bad_scale = transform::scale(8, 8);
  bad_scale.arg0 = 0;
  EXPECT_EQ(client
                .call(Op::kApply,
                      encode_apply({id, DeliveryMode::kClampedReencode, 80,
                                    {bad_scale}}))
                .status,
            Status::kBadRequest);
  // An intermediate image over the decode pixel limit (3.6 G pixels, 43 GB
  // of float planes) is refused from the chain, before any allocation.
  EXPECT_EQ(client
                .call(Op::kApply,
                      encode_apply({id, DeliveryMode::kClampedReencode, 80,
                                    {transform::scale(60000, 60000),
                                     transform::scale(32, 32)}}))
                .status,
            Status::kBadRequest);
  // The server keeps serving: a valid apply and download still work.
  client.apply(id, {transform::rotate(90)}, DeliveryMode::kCoefficients, 80);
  EXPECT_EQ(jpeg::parse(client.download(id).jfif).width(), 64);

  server.shutdown();
}

TEST(Loopback, RequestByteCapRejectsBeforeAllocation) {
  ServerConfig config;
  config.max_request_bytes = 1024;
  Server server(config);
  server.start();
  Client client = connect_to(server);

  // A payload over the cap: clean kTooLarge carrying the cap in its
  // message, and the same connection keeps working afterwards.
  const Bytes big(64 * 1024, 0xee);
  const Client::Response r = client.call(Op::kUpload, encode_upload({big, {}}));
  EXPECT_EQ(r.status, Status::kTooLarge);
  EXPECT_NE(parse_text(r.payload).find("1024"), std::string::npos);
  EXPECT_NE(client.stats_json().find("net.too_large"), std::string::npos);

  server.shutdown();
}

TEST(Loopback, DerivedRequestCapAdmitsRealUploads) {
  // The default cap derives from the decoder's own bounded-allocation
  // guarantee; every legitimate corpus upload must clear it by a wide
  // margin.
  const ServerConfig config;
  const std::size_t cap = resolve_max_request_bytes(config);
  EXPECT_GE(cap, (1u << 20));
  for (const TestImage& img : corpus())
    EXPECT_LT(img.jfif.size() + img.params.size() + 64, cap);
  ServerConfig explicit_cap;
  explicit_cap.max_request_bytes = 4096;
  EXPECT_EQ(resolve_max_request_bytes(explicit_cap), 4096u);
}

// ---- concurrency ----------------------------------------------------------

TEST(Concurrency, ParallelClientsByteIdentical) {
  ServerConfig config;
  config.threads = 4;
  config.max_inflight = 64;
  Server server(config);
  server.start();

  // Per-thread image + chain: every thread's downloads are deterministic
  // regardless of interleaving with the others.
  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  std::vector<TestImage> images;
  for (int t = 0; t < kThreads; ++t) images.push_back(make_image(100 + t));

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        Client client = connect_to(server);
        const std::string id = client.upload(images[t].jfif, images[t].params);
        const transform::Chain chain{transform::rotate(t % 2 ? 90 : 180)};
        client.apply(id, chain, DeliveryMode::kCoefficients);
        Bytes first;
        for (int round = 0; round < kRounds; ++round) {
          const DownloadReply d = client.download(id);
          if (round == 0)
            first = d.jfif;
          else if (d.jfif != first)
            ++failures;
          if (round == kRounds / 2) client.stats_json();
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  server.shutdown();
}

TEST(Concurrency, BusyBackpressureAtMaxInflight) {
  ServerConfig config;
  config.threads = 1;
  config.max_inflight = 1;
  Server server(config);
  server.start();
  const std::string id = [&] {
    Client setup = connect_to(server);
    return setup.upload(corpus()[0].jfif, corpus()[0].params);
  }();

  const std::uint64_t busy_before = metrics::counter("net.busy").value();
  fault::ScopedPlan stall("net.dispatch.stall=always");

  // A occupies the single admission slot (stalled 100 ms in dispatch)...
  std::thread a([&] {
    Client ca = connect_to(server);
    const DownloadReply d = ca.download(id);
    EXPECT_EQ(d.jfif, corpus()[0].jfif);
  });
  wait_until([&] { return server.inflight() >= 1; });

  // ...so B is refused on the spot — an explicit BUSY reply, immediate,
  // not a queued wait behind the stalled request.
  Client cb = connect_to(server);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(cb.download(id), ServerBusy);
  const double busy_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_LT(busy_ms, 90.0) << "BUSY must not wait for the stalled request";
  a.join();
  EXPECT_GT(metrics::counter("net.busy").value(), busy_before);

  // Saturation over, the same connection is served again.
  fault::disarm("net.dispatch.stall");
  EXPECT_EQ(cb.download(id).jfif, corpus()[0].jfif);

  server.shutdown();
}

TEST(Concurrency, DeadlineExpiryInQueue) {
  ServerConfig config;
  config.threads = 1;  // one dispatcher lane: B must wait behind A
  config.max_inflight = 4;
  Server server(config);
  server.start();
  const std::string id = [&] {
    Client setup = connect_to(server);
    return setup.upload(corpus()[0].jfif, corpus()[0].params);
  }();

  fault::ScopedPlan stall("net.dispatch.stall=always");
  std::thread a([&] {
    Client ca = connect_to(server);
    EXPECT_NO_THROW(ca.download(id));  // stalled but within its deadline
  });
  wait_until([&] { return server.inflight() >= 1; });

  // B's 1 ms deadline expires while it queues behind stalled A; the
  // dispatcher answers kDeadlineExceeded without ever executing it.
  Client cb = connect_to(server);
  EXPECT_THROW(cb.download(id, /*deadline_ms=*/1), DeadlineExceeded);
  a.join();
  EXPECT_GE(metrics::counter("net.deadline_expired").value(), 1u);

  server.shutdown();
}

// ---- client retry (off by default; bounded backoff on BUSY + transient) ---

TEST(Retry, BusyRetriedUntilSlotFrees) {
  ServerConfig config;
  config.threads = 1;
  config.max_inflight = 1;
  Server server(config);
  server.start();
  const std::string id = [&] {
    Client setup = connect_to(server);
    return setup.upload(corpus()[0].jfif, corpus()[0].params);
  }();

  fault::ScopedPlan stall("net.dispatch.stall=always");
  std::thread a([&] {
    Client ca = connect_to(server);
    EXPECT_NO_THROW(ca.download(id));  // occupies the single slot ~100 ms
  });
  wait_until([&] { return server.inflight() >= 1; });

  // B's first attempt is refused BUSY while A holds the slot; with retry
  // armed the caller never sees ServerBusy — a backed-off attempt lands
  // once the slot frees.
  const std::uint64_t retries_before =
      metrics::counter("net.client.retry").value();
  Client cb = connect_to(server);
  cb.set_retry({/*retries=*/10, /*base_ms=*/20, /*max_backoff_ms=*/100});
  const DownloadReply d = cb.download(id);
  EXPECT_EQ(d.jfif, corpus()[0].jfif);
  EXPECT_GT(metrics::counter("net.client.retry").value(), retries_before);
  a.join();
  server.shutdown();
}

TEST(Retry, TransientDropReconnectsAndResends) {
  const ServerConfig config;
  Server server(config);
  server.start();
  // Every client stays alive until the end of the test: a closing client
  // wakes the server's read loop, and that stray read would consume a
  // once-armed net.read.fail before the request it is aimed at.
  Client setup = connect_to(server);
  const std::string id = setup.upload(corpus()[0].jfif, corpus()[0].params);

  // The server drops the connection on its next read. Retry off (the
  // default): the failure surfaces as TransientError.
  Client plain = connect_to(server);
  {
    fault::ScopedPlan drop("net.read.fail=once");
    EXPECT_THROW(plain.download(id), TransientError);
  }
  // Retry on: the client reconnects and resends the (idempotent) request.
  Client retrying = connect_to(server);
  retrying.set_retry({/*retries=*/3, /*base_ms=*/5, /*max_backoff_ms=*/50});
  {
    fault::ScopedPlan drop("net.read.fail=once");
    const DownloadReply d = retrying.download(id);
    EXPECT_EQ(d.jfif, corpus()[0].jfif);
    EXPECT_TRUE(retrying.connected());
  }
  server.shutdown();
}

TEST(Retry, BackoffNeverSleepsPastTheDeadline) {
  ServerConfig config;
  config.threads = 1;
  config.max_inflight = 1;
  Server server(config);
  server.start();
  const std::string id = [&] {
    Client setup = connect_to(server);
    return setup.upload(corpus()[0].jfif, corpus()[0].params);
  }();

  fault::ScopedPlan stall("net.dispatch.stall=always");
  std::thread a([&] {
    Client ca = connect_to(server);
    EXPECT_NO_THROW(ca.download(id));
  });
  wait_until([&] { return server.inflight() >= 1; });

  // A 5 s backoff would overrun the 200 ms request deadline many times
  // over: the client must give up immediately with the actionable BUSY
  // instead of sleeping into a guaranteed kDeadlineExceeded.
  const std::uint64_t gaveup_before =
      metrics::counter("net.client.retry_deadline").value();
  Client cb = connect_to(server);
  cb.set_retry({/*retries=*/10, /*base_ms=*/5000, /*max_backoff_ms=*/5000});
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(cb.download(id, /*deadline_ms=*/200), ServerBusy);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  EXPECT_LT(elapsed_ms, 3000.0) << "client slept past the deadline";
  EXPECT_GT(metrics::counter("net.client.retry_deadline").value(),
            gaveup_before);
  a.join();
  server.shutdown();
}

// ---- fault points ---------------------------------------------------------

TEST(Faults, ShortReadsAndWritesStillServeExactBytes) {
  const ServerConfig config;
  Server server(config);
  server.start();

  // Every server-side read capped at one byte and every third write split:
  // frame reassembly and partial-write resumption both on the hot path.
  fault::ScopedPlan plan("net.read.short=always,net.write.short=nth:3");
  Client client = connect_to(server);
  const std::string id = client.upload(corpus()[1].jfif, corpus()[1].params);
  const DownloadReply d = client.download(id);
  EXPECT_EQ(d.jfif, corpus()[1].jfif);
  EXPECT_EQ(d.public_params, corpus()[1].params);

  server.shutdown();
}

TEST(Faults, DispatchAcceptReadFailures) {
  const ServerConfig config;
  Server server(config);
  server.start();

  {
    // Dispatcher fault: the request fails with a clean kError reply.
    fault::ScopedPlan plan("net.dispatch=once");
    Client client = connect_to(server);
    EXPECT_THROW(client.stats_json(), RemoteError);
    EXPECT_NE(client.stats_json().find("net.fault.dispatch"),
              std::string::npos);
  }
  {
    // Accept fault: the connection is dropped at accept; the next works.
    fault::ScopedPlan plan("net.accept=once");
    Client dropped;
    dropped.connect(server.host(), server.port());
    EXPECT_THROW(dropped.stats_json(), TransientError);
    Client ok = connect_to(server);
    EXPECT_NE(ok.stats_json().find("net.fault.accept"), std::string::npos);
  }
  // The read fault fires on the first read of *any* connection — let the
  // loop finish closing the previous blocks' sockets first, or their EOF
  // handling consumes the once-trigger.
  wait_until(
      [] { return metrics::gauge("net.connections").value() == 0; });
  {
    // Read fault: the connection dies server-side; a fresh one serves.
    fault::ScopedPlan plan("net.read.fail=once");
    Client dropped = connect_to(server);
    EXPECT_THROW(dropped.stats_json(), TransientError);
    Client ok = connect_to(server);
    EXPECT_NE(ok.stats_json().find("net.fault.read"), std::string::npos);
  }

  server.shutdown();
}

TEST(Faults, GarbageClosesOnlyTheOffendingConnection) {
  const ServerConfig config;
  Server server(config);
  server.start();
  const std::uint64_t errors_before =
      metrics::counter("net.protocol_error").value();

  // Raw socket spitting a corrupted-magic frame: framing is lost, the
  // server closes that connection (recv sees EOF)...
  Bytes frame = encode_frame(Op::kStats, 1, 0, {});
  frame[0] = 0xff;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(inet_pton(AF_INET, server.host().c_str(), &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_GT(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL), 0);
  std::uint8_t byte;
  wait_until([&] { return ::recv(fd, &byte, 1, MSG_DONTWAIT) == 0; });
  ::close(fd);
  EXPECT_GT(metrics::counter("net.protocol_error").value(), errors_before);

  // ...while fresh connections are unaffected.
  Client still_up = connect_to(server);
  EXPECT_NE(still_up.stats_json().find("net.requests"), std::string::npos);

  server.shutdown();
}

// ---- graceful shutdown ----------------------------------------------------

TEST(Shutdown, DrainDropsNoAdmittedRequest) {
  ServerConfig config;
  config.threads = 2;
  config.max_inflight = 32;
  Server server(config);
  server.start();
  const TestImage img = make_image(77, 128, 96);
  const std::string id = [&] {
    Client setup = connect_to(server);
    return setup.upload(img.jfif, img.params);
  }();
  const std::uint64_t seen_before = server.requests_seen();

  // Every request stalls 100 ms in dispatch and every other write is split
  // — shutdown lands while requests sit mid-queue and responses mid-write,
  // the worst case for dropping one.
  fault::ScopedPlan plan("net.dispatch.stall=always,net.write.short=nth:2");

  constexpr int kClients = 6;
  std::atomic<int> complete{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      try {
        Client c = connect_to(server);
        const DownloadReply d = c.download(id);
        if (d.jfif == img.jfif)
          ++complete;
        else
          ++wrong;
      } catch (const std::exception&) {
        ++wrong;
      }
    });
  }
  // All six admitted (parsed off their sockets) before the drain begins.
  wait_until(
      [&] { return server.requests_seen() >= seen_before + kClients; });
  server.shutdown();  // blocks until drained

  for (auto& th : threads) th.join();
  EXPECT_EQ(complete.load(), kClients)
      << "an admitted request was dropped mid-drain";
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_FALSE(server.running());

  // Drained means down: new connections are refused...
  Client late;
  EXPECT_THROW(late.connect(server.host(), server.port()), TransientError);
  // ...and shutdown is idempotent.
  server.shutdown();
}

}  // namespace
}  // namespace puppies::net
