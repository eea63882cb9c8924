// libFuzzer harness for service::Sha256: the portable and SHA-NI
// compression functions, fed through update() in the same arbitrary
// chunking, must give the one-shot digest.
//
// Input layout: byte 0 is k, the number of chunk-length bytes that follow
// (capped at what the input holds); those k bytes are update() sizes used
// in turn, cycling; a 0 feeds an empty span, and a whole cycle of them the
// rest of the message. The rest of the input is the message; k = 0 feeds
// it in one update().
//
// Contract enforced on every input:
//  * the portable path, chunked, equals Sha256::digest (which takes the
//    SHA-NI path on a CPU that has it);
//  * on such a CPU, the SHA-NI path, chunked the same way, equals it too.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <span>

#include "service/sha256.hpp"
#include "service/sha256_impl.hpp"

namespace {

using ringent::service::Sha256;
using ringent::service::detail::Sha256Access;
using ringent::service::detail::Sha256Compress;

std::array<std::uint8_t, Sha256::digest_size> chunked_digest(
    Sha256Compress compress, std::span<const std::uint8_t> chunks,
    std::span<const std::uint8_t> message) {
  Sha256 hash = Sha256Access::with(compress);
  if (chunks.empty()) {
    hash.update(message);
    return hash.finish();
  }
  std::size_t offset = 0;
  std::size_t cycle_start = 0;
  for (std::size_t i = 0; offset < message.size(); ++i) {
    std::size_t size = chunks[i % chunks.size()];
    if (i % chunks.size() == 0) {
      // A cycle of zero sizes makes no progress: the rest goes in one call.
      if (i > 0 && offset == cycle_start) size = message.size();
      cycle_start = offset;
    }
    const std::size_t take = std::min(size, message.size() - offset);
    hash.update(message.subspan(offset, take));
    offset += take;
  }
  return hash.finish();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> input(data, size);
  const std::size_t k = size > 0 ? std::min<std::size_t>(data[0], size - 1) : 0;
  const auto chunks = input.subspan(size > 0 ? 1 : 0, k);
  const auto message = input.subspan(size > 0 ? 1 + k : 0);

  const auto expected = Sha256::digest(message);
  if (chunked_digest(ringent::service::detail::sha256_compress_portable,
                     chunks, message) != expected) {
    std::abort();
  }
#if RINGENT_SHA256_SHA_NI
  if (ringent::service::detail::cpu_has_sha_ni() &&
      chunked_digest(ringent::service::detail::sha256_compress_sha_ni, chunks,
                     message) != expected) {
    std::abort();
  }
#endif
  return 0;
}
