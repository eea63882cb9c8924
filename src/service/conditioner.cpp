#include "service/conditioner.hpp"

#include <algorithm>

#include "common/require.hpp"

namespace ringent::service {

namespace {

// CRC-64/XZ polynomial (reflected), the same generator used by xz/liblzma.
constexpr std::uint64_t kCrc64Poly = 0xC96C5795D7870F42ull;

// Non-zero init so an all-zero raw stream still cycles the register.
constexpr std::uint64_t kLfsrInit = 0xFFFFFFFFFFFFFFFFull;

inline std::uint64_t crc64_feed_byte(std::uint64_t state, std::uint8_t byte) {
  state ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    state = (state >> 1) ^ (kCrc64Poly & (~(state & 1u) + 1));
  }
  return state;
}

}  // namespace

ConditionerKind parse_conditioner_kind(const std::string& name) {
  if (name == "lfsr") return ConditionerKind::lfsr;
  if (name == "hash") return ConditionerKind::hash;
  RINGENT_REQUIRE(false, "unknown conditioner kind: " + name);
}

const char* conditioner_kind_name(ConditionerKind kind) {
  switch (kind) {
    case ConditionerKind::lfsr:
      return "lfsr";
    case ConditionerKind::hash:
      return "hash";
  }
  return "?";
}

LfsrConditioner::LfsrConditioner(std::size_t ratio)
    : ratio_(ratio), state_(kLfsrInit) {
  RINGENT_REQUIRE(ratio >= 1, "lfsr conditioner ratio must be >= 1");
}

void LfsrConditioner::process(std::span<const std::uint8_t> raw,
                              std::vector<std::uint8_t>& out) {
  for (const std::uint8_t byte : raw) {
    state_ = crc64_feed_byte(state_, byte);
    if (++absorbed_ >= ratio_) {
      absorbed_ = 0;
      out.push_back(static_cast<std::uint8_t>(state_ & 0xFFu));
    }
  }
}

void LfsrConditioner::reset() {
  state_ = kLfsrInit;
  absorbed_ = 0;
}

HashConditioner::HashConditioner(std::size_t ratio)
    : ratio_(ratio), block_bytes_(ratio * Sha256::digest_size) {
  RINGENT_REQUIRE(ratio >= 1, "hash conditioner ratio must be >= 1");
  start_block();
}

void HashConditioner::process(std::span<const std::uint8_t> raw,
                              std::vector<std::uint8_t>& out) {
  while (!raw.empty()) {
    const std::size_t take = std::min(raw.size(), block_bytes_ - absorbed_);
    hash_.update(raw.first(take));
    raw = raw.subspan(take);
    absorbed_ += take;
    if (absorbed_ == block_bytes_) {
      chain_ = hash_.finish();
      out.insert(out.end(), chain_.begin(), chain_.end());
      start_block();
    }
  }
}

void HashConditioner::start_block() {
  hash_.reset();
  hash_.update(chain_);
  absorbed_ = 0;
}

void HashConditioner::reset() {
  chain_.fill(0);
  start_block();
}

std::unique_ptr<Conditioner> make_conditioner(ConditionerKind kind,
                                              std::size_t ratio) {
  switch (kind) {
    case ConditionerKind::lfsr:
      return std::make_unique<LfsrConditioner>(ratio);
    case ConditionerKind::hash:
      return std::make_unique<HashConditioner>(ratio);
  }
  RINGENT_REQUIRE(false, "unknown conditioner kind");
}

}  // namespace ringent::service
