#include "service/sha256.hpp"

#include <bit>
#include <cstring>

#include "service/sha256_impl.hpp"

#if RINGENT_SHA256_SHA_NI
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace ringent::service {

namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu,
    0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u,
    0x243185beu, 0x550c7dc3u, 0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u,
    0xc19bf174u, 0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau, 0x983e5152u,
    0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu,
    0x53380d13u, 0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u, 0xd192e819u,
    0xd6990624u, 0xf40e3585u, 0x106aa070u, 0x19a4c116u, 0x1e376c08u,
    0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu,
    0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u,
};

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

void compress_block(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (std::size_t t = 0; t < 16; ++t) w[t] = load_be32(block + 4 * t);
  for (std::size_t t = 16; t < 64; ++t) {
    const std::uint32_t s0 = std::rotr(w[t - 15], 7) ^
                             std::rotr(w[t - 15], 18) ^ (w[t - 15] >> 3);
    const std::uint32_t s1 = std::rotr(w[t - 2], 17) ^
                             std::rotr(w[t - 2], 19) ^ (w[t - 2] >> 10);
    w[t] = w[t - 16] + s0 + w[t - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (std::size_t t = 0; t < 64; ++t) {
    const std::uint32_t big_s1 =
        std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + big_s1 + ch + kRound[t] + w[t];
    const std::uint32_t big_s0 =
        std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = big_s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

namespace detail {

void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks) {
  for (std::size_t i = 0; i < blocks; ++i) {
    compress_block(state, data + 64 * i);
  }
}

#if RINGENT_SHA256_SHA_NI

namespace {

__attribute__((target("sse4.1"))) inline __m128i load128(const void* p) {
  return _mm_loadu_si128(static_cast<const __m128i*>(p));
}

}  // namespace

// Four rounds per sha256rnds2 pair. The state lives in the ABEF/CDGH
// register layout the instructions want; it is shuffled in and out once
// per call, not once per block. The message schedule keeps the last four
// groups of four words in w[], rotating: group i >= 4 is
// msg2(msg1(w[i-4], w[i-3]) + words 4i-7 .. 4i-4, w[i-1]).
__attribute__((target("sha,sse4.1"))) void sha256_compress_sha_ni(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba = _mm_shuffle_epi32(load128(state), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(load128(state + 4), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, dcba, 0xF0);

  for (std::size_t b = 0; b < blocks; ++b, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      __m128i& group = w[i & 3];
      if (i < 4) {
        group = _mm_shuffle_epi8(load128(data + 16 * i), byte_swap);
      } else {
        const __m128i prev = w[(i - 1) & 3];
        group = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(group, w[(i - 3) & 3]),
                          _mm_alignr_epi8(prev, w[(i - 2) & 3], 4)),
            prev);
      }
      __m128i msg = _mm_add_epi32(group, load128(kRound + 4 * i));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx >> 9) & 1u;
  const bool sse41 = (ecx >> 19) & 1u;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx >> 29) & 1u;
  return ssse3 && sse41 && sha;
}

#else

bool cpu_has_sha_ni() { return false; }

#endif

Sha256Compress sha256_compress() {
  // Function-local, so a Sha256 built during static initialisation (a
  // campaign key, say) still sees the probe's answer.
#if RINGENT_SHA256_SHA_NI
  static const Sha256Compress chosen =
      cpu_has_sha_ni() ? sha256_compress_sha_ni : sha256_compress_portable;
  return chosen;
#else
  return sha256_compress_portable;
#endif
}

}  // namespace detail

Sha256::Sha256() : Sha256(detail::sha256_compress()) {}

void Sha256::reset() {
  for (std::size_t i = 0; i < 8; ++i) state_[i] = kInit[i];
  total_bytes_ = 0;
  pending_size_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> bytes) {
  total_bytes_ += bytes.size();
  std::size_t offset = 0;
  if (pending_size_ > 0) {
    const std::size_t take =
        std::min(bytes.size(), pending_.size() - pending_size_);
    std::memcpy(pending_.data() + pending_size_, bytes.data(), take);
    pending_size_ += take;
    offset = take;
    if (pending_size_ < pending_.size()) return;
    compress_(state_.data(), pending_.data(), 1);
    pending_size_ = 0;
  }
  const std::size_t blocks = (bytes.size() - offset) / 64;
  if (blocks > 0) {
    compress_(state_.data(), bytes.data() + offset, blocks);
    offset += 64 * blocks;
  }
  if (offset < bytes.size()) {
    pending_size_ = bytes.size() - offset;
    std::memcpy(pending_.data(), bytes.data() + offset, pending_size_);
  }
}

std::array<std::uint8_t, Sha256::digest_size> Sha256::finish() {
  // Padding goes straight into the pending block: 0x80, zeros up to byte
  // 56 (spilling into one more block when fewer than 9 bytes are left), and
  // the message length in bits, big-endian.
  const std::uint64_t bit_length = total_bytes_ * 8;
  pending_[pending_size_++] = 0x80;
  if (pending_size_ > 56) {
    std::memset(pending_.data() + pending_size_, 0, 64 - pending_size_);
    compress_(state_.data(), pending_.data(), 1);
    pending_size_ = 0;
  }
  std::memset(pending_.data() + pending_size_, 0, 56 - pending_size_);
  for (std::size_t i = 0; i < 8; ++i) {
    pending_[56 + i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  compress_(state_.data(), pending_.data(), 1);
  pending_size_ = 0;
  std::array<std::uint8_t, digest_size> out{};
  for (std::size_t i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, state_[i]);
  return out;
}

}  // namespace ringent::service
