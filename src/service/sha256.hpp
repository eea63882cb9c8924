// SHA-256 (FIPS 180-4) for the hash-based conditioner and campaign keys.
//
// The service layer needs a vetted cryptographic compressor the way
// jitterentropy uses SHA-3 in jent_hash_time; there is no crypto library to
// link, so the compression function is a plain, dependency-free
// transcription of FIPS 180-4, pinned by the standard vectors ("abc", the
// empty string, the two-block 448-bit message). On x86 CPUs with the SHA
// extensions a SHA-NI compression function is chosen instead, once, by
// CPUID (service/sha256_impl.hpp). A differential test and a fuzz target
// hold it to the portable one: both paths must give the same digest for
// every message and every update() chunking.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace ringent::service {

namespace detail {
struct Sha256Access;
}

class Sha256 {
 public:
  static constexpr std::size_t digest_size = 32;

  Sha256();

  /// Restart as a fresh hash.
  void reset();

  /// Absorb `bytes` (streaming: any call-boundary chunking gives the same
  /// digest). Each run of whole 64-byte blocks is compressed in one call.
  void update(std::span<const std::uint8_t> bytes);

  /// Pad, finalize and return the digest. The object must be reset()
  /// before further use.
  std::array<std::uint8_t, digest_size> finish();

  /// One-shot convenience.
  static std::array<std::uint8_t, digest_size> digest(
      std::span<const std::uint8_t> bytes) {
    Sha256 h;
    h.update(bytes);
    return h.finish();
  }

 private:
  friend struct detail::Sha256Access;
  using Compress = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

  explicit Sha256(Compress compress) : compress_(compress) { reset(); }

  Compress compress_;
  std::array<std::uint32_t, 8> state_{};
  std::uint64_t total_bytes_ = 0;
  std::array<std::uint8_t, 64> pending_{};
  std::size_t pending_size_ = 0;
};

}  // namespace ringent::service
