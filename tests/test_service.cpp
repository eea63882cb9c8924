// Tier-1 coverage for the entropy service layer (src/service/):
//
//  * SpscRing — SPSC byte ring unit tests incl. wraparound and the
//    power-of-two capacity contract;
//  * Sha256 — FIPS 180-4 test vectors and streaming-chunk invariance; the
//    portable and SHA-NI compression functions against each other on every
//    length 0..300 and random update() chunkings (the SHA-NI cases skip on a
//    CPU without it);
//  * conditioners — golden-pinned output (bit-exact regression anchors),
//    chunking invariance and reset semantics;
//  * pool + front-end — starvation paths (all slots failed, all slots
//    exhausted) and the cross-jobs bit-identity contract at jobs = 1/2/8,
//    pinned against hardcoded stream fingerprints.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/calibration.hpp"
#include "core/experiments.hpp"
#include "service/conditioner.hpp"
#include "service/frontend.hpp"
#include "service/pool.hpp"
#include "service/ring_buffer.hpp"
#include "service/sha256.hpp"
#include "service/sha256_impl.hpp"

using namespace ringent;

namespace {

using Bytes = std::vector<std::uint8_t>;

std::string hex(std::span<const std::uint8_t> bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// SpscRing

TEST(SpscRing, RejectsNonPowerOfTwoCapacity) {
  EXPECT_THROW(service::SpscRing(0), PreconditionError);
  EXPECT_THROW(service::SpscRing(3), PreconditionError);
  EXPECT_THROW(service::SpscRing(100), PreconditionError);
  EXPECT_THROW(service::SpscRing(1), PreconditionError);  // minimum is 2
  EXPECT_NO_THROW(service::SpscRing(2));
  EXPECT_NO_THROW(service::SpscRing(64));
}

TEST(SpscRing, PushPopRoundTripsBytes) {
  service::SpscRing ring(16);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.free_space(), 16u);

  Bytes in(10);
  std::iota(in.begin(), in.end(), std::uint8_t{1});
  EXPECT_EQ(ring.try_push(in), 10u);
  EXPECT_EQ(ring.size(), 10u);
  EXPECT_EQ(ring.free_space(), 6u);

  Bytes out(10);
  EXPECT_EQ(ring.try_pop(out), 10u);
  EXPECT_EQ(out, in);
  EXPECT_EQ(ring.size(), 0u);
}

TEST(SpscRing, PartialPushWhenNearlyFull) {
  service::SpscRing ring(8);
  Bytes six(6, 0xAA);
  EXPECT_EQ(ring.try_push(six), 6u);
  // Only 2 slots left: a 5-byte push is truncated, never blocked.
  Bytes five{1, 2, 3, 4, 5};
  EXPECT_EQ(ring.try_push(five), 2u);
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.try_push(five), 0u);

  Bytes out(8);
  EXPECT_EQ(ring.try_pop(out), 8u);
  EXPECT_EQ(out, (Bytes{0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 1, 2}));
  // Pop from empty is a zero-count, not an error.
  EXPECT_EQ(ring.try_pop(out), 0u);
}

TEST(SpscRing, WraparoundPreservesByteOrder) {
  // Capacity 8; cycle enough data through to wrap the cursors repeatedly
  // with unaligned chunk sizes, checking FIFO order across the seam.
  service::SpscRing ring(8);
  std::uint8_t next_in = 0;
  std::uint8_t next_out = 0;
  for (int round = 0; round < 100; ++round) {
    Bytes in(5);
    for (auto& b : in) b = next_in++;
    const std::size_t pushed = ring.try_push(in);
    next_in = static_cast<std::uint8_t>(next_in - (in.size() - pushed));

    Bytes out(3);
    const std::size_t popped = ring.try_pop(out);
    for (std::size_t i = 0; i < popped; ++i) {
      ASSERT_EQ(out[i], next_out) << "round " << round;
      ++next_out;
    }
  }
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4 appendix vectors)

TEST(Sha256, FipsVectorEmpty) {
  const auto d = service::Sha256::digest({});
  EXPECT_EQ(hex(d),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, FipsVectorAbc) {
  const Bytes msg{'a', 'b', 'c'};
  const auto d = service::Sha256::digest(msg);
  EXPECT_EQ(hex(d),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, FipsVectorTwoBlock) {
  const std::string s =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  const Bytes msg(s.begin(), s.end());
  const auto d = service::Sha256::digest(msg);
  EXPECT_EQ(hex(d),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, StreamingChunksMatchOneShot) {
  // 200 bytes of a fixed pattern, fed whole vs. in awkward chunk sizes.
  Bytes msg(200);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  const auto ref = service::Sha256::digest(msg);

  service::Sha256 h;
  std::size_t off = 0;
  for (const std::size_t chunk : {1u, 63u, 64u, 65u, 7u}) {
    h.update(std::span<const std::uint8_t>(msg).subspan(off, chunk));
    off += chunk;
  }
  h.update(std::span<const std::uint8_t>(msg).subspan(off));
  EXPECT_EQ(h.finish(), ref);
}

// ---------------------------------------------------------------------------
// SHA-256 compression paths: production calls the SHA-NI path on a CPU that
// has it and the portable one elsewhere, so each is held to the other here.

using service::detail::Sha256Access;
using service::detail::Sha256Compress;

/// The SHA-NI compression function, or nullptr when this build or CPU lacks
/// it.
Sha256Compress sha_ni_compress() {
#if RINGENT_SHA256_SHA_NI
  if (service::detail::cpu_has_sha_ni()) {
    return service::detail::sha256_compress_sha_ni;
  }
#endif
  return nullptr;
}

constexpr const char* kNoShaNi =
    "this CPU (or a non-x86 build) has no SHA-NI: the hardware compression "
    "path is not exercised here";

/// `msg` through `compress`, fed to update() in chunks of random length
/// (0 to `max_chunk` bytes) drawn from `rng`; whole when max_chunk is 0.
std::string digest_with(Sha256Compress compress,
                        std::span<const std::uint8_t> msg, Xoshiro256& rng,
                        std::size_t max_chunk) {
  service::Sha256 h = Sha256Access::with(compress);
  std::size_t off = 0;
  while (off < msg.size()) {
    const std::size_t chunk =
        max_chunk == 0 ? msg.size() : rng.next() % (max_chunk + 1);
    const std::size_t take = std::min(chunk, msg.size() - off);
    h.update(msg.subspan(off, take));
    off += take;
  }
  return hex(h.finish());
}

struct FipsVector {
  std::string message;
  const char* digest;
};

const std::vector<FipsVector>& fips_vectors() {
  static const std::vector<FipsVector> vectors = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
  };
  return vectors;
}

void expect_fips_vectors(Sha256Compress compress) {
  Xoshiro256 rng(7);
  for (const FipsVector& v : fips_vectors()) {
    const Bytes msg(v.message.begin(), v.message.end());
    EXPECT_EQ(digest_with(compress, msg, rng, 0), v.digest) << v.message;
    EXPECT_EQ(digest_with(compress, msg, rng, 5), v.digest) << v.message;
  }
}

/// Message lengths 0..300 (every padding edge, one to five blocks) plus a
/// few multi-KiB ones, with seeded random contents.
std::vector<Bytes> differential_messages() {
  std::vector<std::size_t> lengths(301);
  std::iota(lengths.begin(), lengths.end(), std::size_t{0});
  for (const std::size_t n : {1024u, 4096u + 55u, 8192u + 63u, 65536u + 9u}) {
    lengths.push_back(n);
  }
  Xoshiro256 rng(0x5AA5);
  std::vector<Bytes> messages;
  for (const std::size_t n : lengths) {
    Bytes msg(n);
    for (auto& byte : msg) byte = static_cast<std::uint8_t>(rng.next());
    messages.push_back(std::move(msg));
  }
  return messages;
}

TEST(Sha256Paths, PortableFipsVectors) {
  expect_fips_vectors(service::detail::sha256_compress_portable);
}

TEST(Sha256Paths, ShaNiFipsVectors) {
  const Sha256Compress sha_ni = sha_ni_compress();
  if (sha_ni == nullptr) GTEST_SKIP() << kNoShaNi;
  expect_fips_vectors(sha_ni);
}

TEST(Sha256Paths, DispatchFollowsTheCpuidProbe) {
  const Sha256Compress sha_ni = sha_ni_compress();
  EXPECT_EQ(service::detail::sha256_compress(),
            sha_ni != nullptr ? sha_ni
                              : service::detail::sha256_compress_portable);
}

TEST(Sha256Paths, PortableChunkingsMatchOneShot) {
  // Runs on every host, so streaming through the portable path is checked
  // where the one-shot digest takes the SHA-NI path and where it does not.
  Xoshiro256 rng(11);
  for (const Bytes& msg : differential_messages()) {
    const std::string one_shot = hex(service::Sha256::digest(msg));
    for (const std::size_t max_chunk : {0u, 3u, 70u, 200u}) {
      ASSERT_EQ(digest_with(service::detail::sha256_compress_portable, msg,
                            rng, max_chunk),
                one_shot)
          << "length " << msg.size() << ", chunks up to " << max_chunk;
    }
  }
}

TEST(Sha256Paths, ShaNiMatchesPortableOnEveryLengthAndChunking) {
  const Sha256Compress sha_ni = sha_ni_compress();
  if (sha_ni == nullptr) GTEST_SKIP() << kNoShaNi;
  Xoshiro256 rng(13);
  for (const Bytes& msg : differential_messages()) {
    const std::string portable =
        digest_with(service::detail::sha256_compress_portable, msg, rng, 0);
    ASSERT_EQ(hex(service::Sha256::digest(msg)), portable)
        << "one-shot, length " << msg.size();
    for (const std::size_t max_chunk : {0u, 3u, 70u, 200u}) {
      ASSERT_EQ(digest_with(sha_ni, msg, rng, max_chunk), portable)
          << "SHA-NI, length " << msg.size() << ", chunks up to "
          << max_chunk;
    }
  }
}

// ---------------------------------------------------------------------------
// Conditioners

TEST(Conditioner, KindParsingRoundTrips) {
  EXPECT_EQ(service::parse_conditioner_kind("lfsr"),
            service::ConditionerKind::lfsr);
  EXPECT_EQ(service::parse_conditioner_kind("hash"),
            service::ConditionerKind::hash);
  EXPECT_THROW(service::parse_conditioner_kind("sponge"), PreconditionError);
  EXPECT_STREQ(
      service::conditioner_kind_name(service::ConditionerKind::lfsr), "lfsr");
  EXPECT_STREQ(
      service::conditioner_kind_name(service::ConditionerKind::hash), "hash");
}

TEST(Conditioner, LfsrGoldenVectors) {
  // Golden pins: CRC-64/XZ compression of the fixed raw prefixes below.
  // Any change to the polynomial, the init state or the emission cadence
  // breaks these bytes.
  service::LfsrConditioner cond(2);
  Bytes raw(16);
  std::iota(raw.begin(), raw.end(), std::uint8_t{0});
  Bytes out;
  cond.process(raw, out);
  EXPECT_EQ(out,
            (Bytes{0x17, 0x51, 0x97, 0x86, 0x4F, 0x27, 0xE7, 0xA9}));

  service::LfsrConditioner ident(1);
  const std::string s = "ringent";
  Bytes out1;
  ident.process(Bytes(s.begin(), s.end()), out1);
  EXPECT_EQ(out1, (Bytes{0x87, 0x32, 0xF5, 0x8B, 0xB8, 0xDF, 0xB0}));
}

TEST(Conditioner, HashGoldenVectorMatchesChainedSha256) {
  // ratio 2 -> one output block per 64 raw bytes. The pinned bytes double as
  // a cross-check: digest(zero_chain || raw) computed with Sha256 directly.
  service::HashConditioner cond(2);
  Bytes raw(64);
  std::iota(raw.begin(), raw.end(), std::uint8_t{0});
  Bytes out;
  cond.process(raw, out);
  ASSERT_EQ(out.size(), 32u);
  EXPECT_EQ(hex(out),
            "dc7a48014fc1fac8b52af39bc7ea5cafafabf8bb81fb8f880fdf3b4a4566795c");

  Bytes preimage(32, 0x00);  // zero chain value
  preimage.insert(preimage.end(), raw.begin(), raw.end());
  const auto direct = service::Sha256::digest(preimage);
  EXPECT_EQ(out, Bytes(direct.begin(), direct.end()));
}

TEST(Conditioner, ChunkingInvariance) {
  // Both conditioners are streaming: output depends on the byte sequence,
  // never on process() call boundaries.
  Bytes raw(257);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<std::uint8_t>(i * 31 + 11);
  }
  for (const auto kind :
       {service::ConditionerKind::lfsr, service::ConditionerKind::hash}) {
    const auto whole_cond = service::make_conditioner(kind, 2);
    Bytes whole;
    whole_cond->process(raw, whole);

    const auto chunked_cond = service::make_conditioner(kind, 2);
    Bytes chunked;
    std::size_t off = 0;
    for (const std::size_t chunk : {1u, 13u, 64u, 100u}) {
      chunked_cond->process(
          std::span<const std::uint8_t>(raw).subspan(off, chunk), chunked);
      off += chunk;
    }
    chunked_cond->process(std::span<const std::uint8_t>(raw).subspan(off),
                          chunked);
    EXPECT_EQ(chunked, whole) << service::conditioner_kind_name(kind);
  }
}

TEST(Conditioner, ResetRestartsTheStream) {
  for (const auto kind :
       {service::ConditionerKind::lfsr, service::ConditionerKind::hash}) {
    const auto cond = service::make_conditioner(kind, 1);
    Bytes raw(64, 0x5A);
    Bytes first;
    cond->process(raw, first);
    Bytes again;
    cond->reset();
    cond->process(raw, again);
    EXPECT_EQ(again, first) << service::conditioner_kind_name(kind);
  }
}

TEST(Conditioner, RejectsZeroRatio) {
  EXPECT_THROW(service::make_conditioner(service::ConditionerKind::lfsr, 0),
               PreconditionError);
  EXPECT_THROW(service::make_conditioner(service::ConditionerKind::hash, 0),
               PreconditionError);
}

// ---------------------------------------------------------------------------
// Pool + front-end starvation paths

/// Always-zero source: trips the RCT almost immediately and keeps tripping
/// it through every relock, driving the slot to `failed`.
class StuckSource final : public trng::BitSource {
 public:
  std::uint8_t next_bit() override { return 0; }
  std::string_view describe() const override { return "stuck"; }
};

trng::DegradationPolicy fast_fail_policy() {
  trng::DegradationPolicy policy;
  policy.claimed_min_entropy = 0.3;
  policy.backoff_bits = 16;
  policy.probation_bits = 32;
  policy.max_strikes = 2;
  policy.failover_after_strikes = 0;
  return policy;
}

TEST(ServiceStarvation, AllSlotsFailedThrowsInsteadOfBlocking) {
  service::PoolConfig config;
  config.slots = 2;
  config.workers = 2;
  config.raw_bits_per_slot = 1u << 20;  // budget never the limiting factor
  // Hash conditioner, ratio 2: one output block needs 64 emitted raw bytes.
  // A stuck source emits only 67 bits (8 bytes) before the RCT trips and
  // the slot dies, so no conditioned block ever forms — the front-end must
  // report starvation instead of blocking or leaking raw bits.
  config.conditioner = service::ConditionerKind::hash;
  config.policy = fast_fail_policy();
  service::GeneratorPool pool(config, [](std::size_t, std::uint64_t) {
    service::SlotSources s;
    s.primary = std::make_unique<StuckSource>();
    return s;
  });
  pool.start();

  service::EntropyService frontend(pool);
  Bytes out(64);
  EXPECT_THROW((void)frontend.acquire(out), service::StarvationError);
  pool.stop();

  EXPECT_EQ(frontend.stats().bytes_delivered, 0u);
  EXPECT_EQ(frontend.stats().starvations, 1u);
  EXPECT_EQ(frontend.live_slots(), 0u);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.slots_failed, 2u);
  EXPECT_EQ(stats.slots_exhausted, 2u);
  EXPECT_EQ(pool.generator(0).state(), trng::DegradationState::failed);
  EXPECT_EQ(pool.generator(1).state(), trng::DegradationState::failed);
}

TEST(ServiceStarvation, DrainedPoolReportsEndOfStream) {
  // Healthy synthetic slots with a tiny budget: drain everything, then the
  // next acquire must throw (all slots retired), not hang.
  service::PoolConfig config;
  config.slots = 2;
  config.workers = 1;
  config.raw_bits_per_slot = 1u << 12;
  config.policy.claimed_min_entropy = 0.3;
  service::GeneratorPool pool(config, [](std::size_t, std::uint64_t seed) {
    service::SlotSources s;
    s.primary = std::make_unique<service::PrngBitSource>(seed);
    return s;
  });
  pool.start();

  service::EntropyService frontend(pool);
  std::size_t total = 0;
  for (;;) {
    Bytes out(100);
    try {
      const std::size_t got = frontend.acquire(out);
      total += got;
    } catch (const service::StarvationError&) {
      break;
    }
  }
  pool.stop();

  // 2 slots * 4096 raw bits / 8 bits-per-byte / ratio 2 = 512 bytes.
  EXPECT_EQ(total, 512u);
  EXPECT_EQ(frontend.stats().bytes_delivered, 512u);
  EXPECT_EQ(frontend.live_slots(), 0u);
  Bytes more(8);
  EXPECT_THROW((void)frontend.acquire(more), service::StarvationError);
}

// ---------------------------------------------------------------------------
// Cross-jobs bit-identity (the determinism contract of the whole layer)

core::EntropyServiceResult run_service(int jobs,
                                       service::ConditionerKind kind) {
  core::EntropyServiceSpec spec;
  spec.slots = 3;
  spec.raw_bits_per_slot = 1u << 14;
  spec.conditioner = kind;
  core::ExperimentOptions options;
  options.jobs = jobs;
  return core::run_entropy_service(spec, core::cyclone_iii(), options);
}

TEST(ServiceIdentity, ConditionedStreamIsPinnedAndJobsInvariant) {
  // Golden fingerprint of the full conditioned stream (3 synthetic slots,
  // 2^14 raw bits each, LFSR ratio 2). Pinned from a jobs=1 run; every
  // worker count must reproduce it bit-exactly.
  const Bytes golden_head{0x0E, 0xD5, 0x54, 0xBF, 0x49, 0xCB, 0xC8, 0xAA,
                          0x98, 0x07, 0x35, 0xEF, 0x5E, 0xE5, 0x76, 0x83,
                          0x14, 0x16, 0xE6, 0x06, 0x59, 0x88, 0x6E, 0x34,
                          0x15, 0x4C, 0x32, 0x4D, 0x4B, 0x9F, 0x51, 0xA9};
  for (const int jobs : {1, 2, 8}) {
    const auto r = run_service(jobs, service::ConditionerKind::lfsr);
    EXPECT_EQ(r.bytes_delivered, 3072u) << "jobs=" << jobs;
    EXPECT_EQ(r.stream_fnv, 0x5BD965628F5E8D6Eull) << "jobs=" << jobs;
    EXPECT_EQ(r.head, golden_head) << "jobs=" << jobs;
    // Exactly one starvation: the explicit end-of-stream signal that ends
    // the drain loop. More would mean a live slot stalled mid-run.
    EXPECT_EQ(r.starvations, 1u) << "jobs=" << jobs;
    EXPECT_EQ(r.slots_failed, 0u) << "jobs=" << jobs;
    EXPECT_EQ(r.workers, static_cast<std::size_t>(std::min(jobs, 3)))
        << "jobs=" << jobs;
  }
}

TEST(ServiceIdentity, HashConditionerStreamIsPinnedAndJobsInvariant) {
  for (const int jobs : {1, 2}) {
    const auto r = run_service(jobs, service::ConditionerKind::hash);
    EXPECT_EQ(r.bytes_delivered, 3072u) << "jobs=" << jobs;
    EXPECT_EQ(r.stream_fnv, 0x91B719D375343966ull) << "jobs=" << jobs;
  }
}

}  // namespace
