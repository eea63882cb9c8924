// Pluggable conditioning stage for the entropy service layer.
//
// Raw ring-oscillator bits carry bias and short-range correlation (Saarinen,
// arXiv:2102.02196); a production TRNG therefore compresses raw bits through
// a conditioning component before emission. This module provides the two
// families the issue calls for:
//
//  * LfsrConditioner — a CRC-64 Galois shift register in the style of the
//    neoTRNG conditioning stage: every raw byte is folded into a 64-bit LFSR
//    state and one output byte is tapped per `ratio` raw bytes.
//  * HashConditioner — chained SHA-256 in the style of jitterentropy: each
//    block of `ratio * 32` raw bytes is absorbed together with the previous
//    digest, and the 32-byte digest is emitted.
//
// Both are deterministic functions of the raw byte stream and are pinned
// bit-exact by golden vectors in tests/test_service.cpp. Both are streaming:
// feeding the same bytes in different chunkings yields the same output.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "service/sha256.hpp"

namespace ringent::service {

enum class ConditionerKind {
  lfsr,  ///< CRC-64 Galois shift register, light-weight
  hash,  ///< chained SHA-256, full cryptographic conditioning
};

/// Parse "lfsr" / "hash" (throws PreconditionError otherwise).
ConditionerKind parse_conditioner_kind(const std::string& name);
const char* conditioner_kind_name(ConditionerKind kind);

/// Streaming conditioner: raw bytes in, conditioned bytes out. Stateful —
/// output depends on everything absorbed since the last reset().
class Conditioner {
 public:
  virtual ~Conditioner() = default;

  virtual const char* name() const = 0;

  /// Raw bytes consumed per conditioned byte produced (compression ratio).
  virtual std::size_t ratio() const = 0;

  /// Absorb `raw`, appending any completed conditioned bytes to `out`.
  virtual void process(std::span<const std::uint8_t> raw,
                       std::vector<std::uint8_t>& out) = 0;

  /// Forget all absorbed state (fresh stream).
  virtual void reset() = 0;
};

/// CRC-64/XZ Galois LFSR conditioner. Raw bytes are folded into the 64-bit
/// register one at a time; after `ratio` raw bytes the low register byte is
/// emitted. ratio >= 1; ratio 2 halves the rate like a von Neumann-free
/// neoTRNG stage, ratio 1 is a pure whitening pass.
class LfsrConditioner final : public Conditioner {
 public:
  explicit LfsrConditioner(std::size_t ratio = 2);

  const char* name() const override { return "lfsr"; }
  std::size_t ratio() const override { return ratio_; }
  void process(std::span<const std::uint8_t> raw,
               std::vector<std::uint8_t>& out) override;
  void reset() override;

 private:
  std::size_t ratio_;
  std::uint64_t state_;
  std::size_t absorbed_ = 0;  ///< raw bytes since last emitted byte
};

/// Chained SHA-256 conditioner. Hashes each block of `ratio * 32` raw bytes
/// behind the previous digest (chain || block) and emits the 32-byte digest.
/// Raw bytes stream straight into the running hash; nothing is staged.
class HashConditioner final : public Conditioner {
 public:
  explicit HashConditioner(std::size_t ratio = 2);

  const char* name() const override { return "hash"; }
  std::size_t ratio() const override { return ratio_; }
  void process(std::span<const std::uint8_t> raw,
               std::vector<std::uint8_t>& out) override;
  void reset() override;

 private:
  /// Open the next block's hash with the chain digest.
  void start_block();

  std::size_t ratio_;
  std::size_t block_bytes_;
  std::array<std::uint8_t, Sha256::digest_size> chain_{};
  Sha256 hash_;               ///< chain || the block's raw bytes so far
  std::size_t absorbed_ = 0;  ///< raw bytes of the current block
};

std::unique_ptr<Conditioner> make_conditioner(ConditionerKind kind,
                                              std::size_t ratio);

}  // namespace ringent::service
