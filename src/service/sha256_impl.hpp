// Internal to service::Sha256: the two SHA-256 compression functions and
// the CPUID probe that picks between them. Production code reaches them
// only through Sha256; the differential test (tests/test_service.cpp) and
// fuzz/fuzz_sha256.cpp include this header to hash through each path.
#pragma once

#include <cstddef>
#include <cstdint>

#include "service/sha256.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define RINGENT_SHA256_SHA_NI 1
#else
#define RINGENT_SHA256_SHA_NI 0
#endif

namespace ringent::service::detail {

/// Compress `blocks` whole 64-byte blocks at `data` into `state` (H0..H7).
using Sha256Compress = void (*)(std::uint32_t* state,
                                const std::uint8_t* data, std::size_t blocks);

/// The FIPS 180-4 transcription; runs on any CPU.
void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks);

#if RINGENT_SHA256_SHA_NI
/// The x86 SHA extensions. Call it only when cpu_has_sha_ni().
void sha256_compress_sha_ni(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks);
#endif

/// CPUID: SHA (leaf 7 EBX bit 29), SSSE3 and SSE4.1 (leaf 1 ECX bits 9
/// and 19). False on non-x86 builds.
bool cpu_has_sha_ni();

/// The compression function every default-constructed Sha256 uses, chosen
/// once at first call.
Sha256Compress sha256_compress();

/// A Sha256 that compresses with `compress` instead of the chosen one.
struct Sha256Access {
  static Sha256 with(Sha256Compress compress) { return Sha256(compress); }
};

}  // namespace ringent::service::detail
