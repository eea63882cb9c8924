// SP 800-90B non-IID estimators (binary). See entropy90b.hpp for the
// battery contract and the documented deviations from the NIST reference
// implementation (binary-only, kTupleCap width cap).
//
// Numeric conventions, pinned here because the tests pin them:
//  * confidence bounds use kZAlpha = 2.5758293035489008 (99% two-sided);
//  * collision and compression use the *sample* standard deviation
//    (divide by v - 1), matching §6.3.2 step 3 / §6.3.4 step 5;
//  * the binary collision expectation E(p) from §6.3.2 step 7 —
//    with F(q) = Γ(3, 1/q)·q³·e^{1/q} = q + 2q² + 2q³ — simplifies
//    algebraically to E(p) = 2 + 2p(1-p), so the inverse is closed-form:
//    p = (1 + sqrt(5 - 2·X̄'))/2 for X̄' in [2, 2.5];
//  * compression solves X̄' = G(p) + 63·G(q) by 64-step bisection over
//    p in [1/64, 1], G evaluated in O(L') with incremental powers;
//  * t-tuple/LRS occurrence counts come from one suffix-array + LCP +
//    union-find sweep, descending over width thresholds, so degenerate
//    (near-constant) streams stay O(L log² L) instead of O(L²).
#include "analysis/entropy90b.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/fields.hpp"
#include "common/require.hpp"

namespace ringent::analysis {
namespace {

/// min(1, p̂ + Z·sqrt(p̂(1-p̂)/(L-1))) — the §6.3 upper confidence bound.
double upper_bound(double phat, std::size_t length) {
  const double se =
      std::sqrt(phat * (1.0 - phat) / (static_cast<double>(length) - 1.0));
  return std::min(1.0, phat + kZAlpha * se);
}

double entropy_from_probability(double p_u) {
  // + 0.0 folds -log2(1) == -0.0 to +0.0 so serialized results are clean.
  return std::clamp(-std::log2(p_u), 0.0, 1.0) + 0.0;
}

// --- suffix scan for t-tuple / LRS ---------------------------------------

/// q[t] = occurrences of the most common t-tuple; pairs[t] = number of
/// unordered position pairs holding identical t-tuples. Valid for
/// t in [1, cap]; index 0 unused.
struct TupleScan {
  std::size_t cap = 0;
  std::vector<std::uint64_t> q;
  std::vector<std::uint64_t> pairs;
};

std::vector<std::uint32_t> build_suffix_array(const BitStream& s) {
  const std::size_t n = s.size();
  std::vector<std::uint32_t> sa(n), rank(n), next_rank(n);
  for (std::size_t i = 0; i < n; ++i) {
    sa[i] = static_cast<std::uint32_t>(i);
    rank[i] = s.bit_unchecked(i) ? 1 : 0;
  }
  for (std::size_t k = 1;; k *= 2) {
    const auto cmp = [&](std::uint32_t a, std::uint32_t b) {
      if (rank[a] != rank[b]) return rank[a] < rank[b];
      const std::uint32_t ra = a + k < n ? rank[a + k] + 1 : 0;
      const std::uint32_t rb = b + k < n ? rank[b + k] + 1 : 0;
      return ra < rb;
    };
    std::sort(sa.begin(), sa.end(), cmp);
    next_rank[sa[0]] = 0;
    for (std::size_t i = 1; i < n; ++i) {
      next_rank[sa[i]] = next_rank[sa[i - 1]] + (cmp(sa[i - 1], sa[i]) ? 1 : 0);
    }
    rank = next_rank;
    if (rank[sa[n - 1]] == n - 1) break;
  }
  return sa;
}

TupleScan scan_tuples(const BitStream& s) {
  const std::size_t n = s.size();
  TupleScan out;
  out.cap = std::min(kTupleCap, n - 1);
  out.q.assign(out.cap + 1, 1);
  out.pairs.assign(out.cap + 1, 0);

  const std::vector<std::uint32_t> sa = build_suffix_array(s);
  // Inverse permutation, then Kasai's O(n) LCP between SA neighbours.
  std::vector<std::uint32_t> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[sa[i]] = static_cast<std::uint32_t>(i);
  std::vector<std::uint32_t> lcp(n - 1, 0);
  std::size_t h = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (pos[i] > 0) {
      const std::size_t j = sa[pos[i] - 1];
      while (i + h < n && j + h < n &&
             s.bit_unchecked(i + h) == s.bit_unchecked(j + h)) {
        ++h;
      }
      lcp[pos[i] - 1] = static_cast<std::uint32_t>(h);
      if (h > 0) --h;
    } else {
      h = 0;
    }
  }

  // Suffixes sharing a prefix of length >= t are consecutive in the SA, so
  // the components of the "lcp >= t" adjacency graph are exactly the
  // t-tuple occurrence classes. Sweep t downward, merging edges as their
  // threshold is reached; component sizes give q[t], merged products the
  // pair counts.
  std::vector<std::vector<std::uint32_t>> buckets(out.cap + 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const std::size_t t = std::min<std::size_t>(lcp[i], out.cap);
    if (t > 0) buckets[t].push_back(static_cast<std::uint32_t>(i));
  }
  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  std::vector<std::uint64_t> size(n, 1);
  const auto find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::uint64_t cur_max = 1;
  std::uint64_t cur_pairs = 0;
  for (std::size_t t = out.cap; t >= 1; --t) {
    for (const std::uint32_t edge : buckets[t]) {
      std::uint32_t a = find(edge);
      std::uint32_t b = find(edge + 1);
      if (size[a] < size[b]) std::swap(a, b);
      cur_pairs += size[a] * size[b];
      parent[b] = a;
      size[a] += size[b];
      cur_max = std::max(cur_max, size[a]);
    }
    out.q[t] = cur_max;
    out.pairs[t] = cur_pairs;
  }
  return out;
}

double t_tuple_from_scan(const TupleScan& scan, std::size_t length) {
  std::size_t t = 0;
  while (t < scan.cap && scan.q[t + 1] >= 35) ++t;  // q is non-increasing
  RINGENT_REQUIRE(t >= 1,
                  "t-tuple estimate needs a tuple occurring at least 35 times");
  double phat = 0.0;
  for (std::size_t i = 1; i <= t; ++i) {
    const double p = static_cast<double>(scan.q[i]) /
                     static_cast<double>(length - i + 1);
    phat = std::max(phat, std::pow(p, 1.0 / static_cast<double>(i)));
  }
  return entropy_from_probability(upper_bound(phat, length));
}

/// -1 when no width lies in [u, v] (e.g. near-constant streams where the
/// 35-occurrence region extends past kTupleCap).
double lrs_from_scan(const TupleScan& scan, std::size_t length) {
  std::size_t u = scan.cap + 1;
  for (std::size_t i = 1; i <= scan.cap; ++i) {
    if (scan.q[i] < 35) {
      u = i;
      break;
    }
  }
  std::size_t v = 0;
  for (std::size_t i = scan.cap; i >= 1; --i) {
    if (scan.pairs[i] > 0) {
      v = i;
      break;
    }
  }
  if (u > v) return -1.0;
  double phat = 0.0;
  for (std::size_t w = u; w <= v; ++w) {
    const double positions = static_cast<double>(length - w + 1);
    const double total_pairs = 0.5 * positions * (positions - 1.0);
    const double pw = static_cast<double>(scan.pairs[w]) / total_pairs;
    phat = std::max(phat, std::pow(pw, 1.0 / static_cast<double>(w)));
  }
  return entropy_from_probability(upper_bound(phat, length));
}

}  // namespace

// --- §6.3.1 most common value ---------------------------------------------

double mcv_estimate(const BitStream& s) {
  RINGENT_REQUIRE(s.size() >= 2, "MCV estimate needs at least 2 bits");
  const double phat = static_cast<double>(std::max(s.ones(), s.zeros())) /
                      static_cast<double>(s.size());
  return entropy_from_probability(upper_bound(phat, s.size()));
}

// --- §6.3.2 collision estimate --------------------------------------------

double collision_estimate(const BitStream& s) {
  RINGENT_REQUIRE(s.size() >= 8, "collision estimate needs at least 8 bits");
  const std::size_t n = s.size();
  // Binary collision times are 2 (immediate repeat) or 3 (the third sample
  // must repeat one of two distinct predecessors).
  std::uint64_t v = 0;
  std::uint64_t sum = 0;
  std::uint64_t sum_sq = 0;
  std::size_t i = 0;
  while (i + 1 < n) {
    std::uint64_t t = 0;
    if (s.bit_unchecked(i) == s.bit_unchecked(i + 1)) {
      t = 2;
    } else if (i + 2 < n) {
      t = 3;
    } else {
      break;
    }
    ++v;
    sum += t;
    sum_sq += t * t;
    i += t;
  }
  RINGENT_REQUIRE(v >= 2, "collision estimate needs at least 2 collisions");
  const double vd = static_cast<double>(v);
  const double mean = static_cast<double>(sum) / vd;
  const double var =
      std::max(0.0, (static_cast<double>(sum_sq) - vd * mean * mean) /
                        (vd - 1.0));
  const double x_prime = mean - kZAlpha * std::sqrt(var) / std::sqrt(vd);
  // Invert E(p) = 2 + 2p(1-p) (see file header) on the bound.
  if (x_prime >= 2.5) return 1.0;
  if (x_prime <= 2.0) return 0.0;
  const double p = 0.5 * (1.0 + std::sqrt(5.0 - 2.0 * x_prime));
  return entropy_from_probability(p);
}

// --- §6.3.3 Markov estimate -----------------------------------------------

double markov_estimate(const BitStream& s) {
  RINGENT_REQUIRE(s.size() >= 2, "Markov estimate needs at least 2 bits");
  const std::size_t n = s.size();
  const double p1_init = static_cast<double>(s.ones()) / static_cast<double>(n);
  const double p0_init = 1.0 - p1_init;

  std::array<std::array<std::uint64_t, 2>, 2> counts{};
  for (std::size_t i = 0; i + 1 < n; ++i) {
    counts[s.bit_unchecked(i) ? 1 : 0][s.bit_unchecked(i + 1) ? 1 : 0]++;
  }
  std::array<std::array<double, 2>, 2> p{};
  for (int a = 0; a < 2; ++a) {
    const std::uint64_t row = counts[a][0] + counts[a][1];
    for (int b = 0; b < 2; ++b) {
      p[a][b] = row > 0 ? static_cast<double>(counts[a][b]) /
                              static_cast<double>(row)
                        : 0.0;
    }
  }

  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  const auto lg = [&](double x) { return x > 0.0 ? std::log2(x) : kNegInf; };
  const double l0 = lg(p0_init);
  const double l1 = lg(p1_init);
  const double l00 = lg(p[0][0]);
  const double l01 = lg(p[0][1]);
  const double l10 = lg(p[1][0]);
  const double l11 = lg(p[1][1]);

  // The six most-likely 128-bit sequence shapes (§6.3.3 step 3), in log2:
  // all-zeros, 0101…, 0 then ones, 1 then zeros, 1010…, all-ones.
  const double paths[6] = {
      l0 + 127.0 * l00,
      l0 + 64.0 * l01 + 63.0 * l10,
      l0 + l01 + 126.0 * l11,
      l1 + l10 + 126.0 * l00,
      l1 + 64.0 * l10 + 63.0 * l01,
      l1 + 127.0 * l11,
  };
  double best = kNegInf;
  for (const double path : paths) best = std::max(best, path);
  // Every template hitting a zero-probability factor (e.g. the stream "01",
  // where no 128-step path is realisable from the observed transitions)
  // matches the reference implementation's full-entropy verdict.
  if (best == kNegInf) return 1.0;
  return std::min(1.0, -best / 128.0) + 0.0;  // + 0.0: fold away -0.0
}

// --- §6.3.4 compression estimate ------------------------------------------

double compression_estimate(const BitStream& s) {
  constexpr std::size_t kBlockBits = 6;
  constexpr std::size_t kDictBlocks = 1000;
  const std::size_t blocks = s.size() / kBlockBits;
  RINGENT_REQUIRE(blocks >= kDictBlocks + 2,
                  "compression estimate needs at least 6012 bits");

  std::vector<std::uint16_t> block(blocks);
  for (std::size_t j = 0; j < blocks; ++j) {
    std::uint16_t value = 0;  // MSB-first within the block, as in §6.3.4
    for (std::size_t k = 0; k < kBlockBits; ++k) {
      value = static_cast<std::uint16_t>((value << 1) |
                                         (s.bit_unchecked(j * kBlockBits + k)
                                              ? 1
                                              : 0));
    }
    block[j] = value;
  }

  // dict[b] = most recent 1-based block index where value b appeared.
  std::array<std::size_t, 64> dict{};
  for (std::size_t i = 1; i <= kDictBlocks; ++i) dict[block[i - 1]] = i;

  const std::size_t tested = blocks - kDictBlocks;
  const double kd = static_cast<double>(tested);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = kDictBlocks + 1; i <= blocks; ++i) {
    const std::uint16_t b = block[i - 1];
    const std::size_t dist = dict[b] > 0 ? i - dict[b] : i;
    dict[b] = i;
    const double x = std::log2(static_cast<double>(dist));
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kd;
  const double sigma =
      0.5907 * std::sqrt(std::max(0.0, (sum_sq - kd * mean * mean) /
                                           (kd - 1.0)));
  const double x_prime = mean - kZAlpha * sigma / std::sqrt(kd);

  // Expected mean log-distance for parameter p (§6.3.4 step 7), O(blocks)
  // per evaluation via incremental powers of (1-z).
  std::vector<double> log2_of(blocks + 1, 0.0);
  for (std::size_t u = 2; u <= blocks; ++u) {
    log2_of[u] = std::log2(static_cast<double>(u));
  }
  const auto big_g = [&](double z) -> double {
    if (z <= 0.0) return 0.0;
    double power = 1.0;  // (1-z)^(u-1)
    double inner = 0.0;  // z² coefficient
    double tail = 0.0;   // z coefficient (u == t diagonal)
    for (std::size_t u = 1; u <= blocks && power > 0.0; ++u) {
      const double lg = log2_of[u];
      if (u <= kDictBlocks) {
        inner += kd * lg * power;
      } else if (u <= blocks - 1) {
        inner += static_cast<double>(blocks - u) * lg * power;
      }
      if (u >= kDictBlocks + 1) tail += lg * power;
      power *= 1.0 - z;
    }
    return (z * z * inner + z * tail) / kd;
  };
  const auto expected = [&](double p) {
    return big_g(p) + 63.0 * big_g((1.0 - p) / 63.0);
  };

  // expected() decreases in p; bisect for the largest p consistent with
  // the bound. No solution above uniform → full entropy; at or below the
  // deterministic limit → zero.
  double lo = 1.0 / 64.0;
  double hi = 1.0;
  if (x_prime >= expected(lo)) return 1.0;
  if (x_prime <= 0.0) return 0.0;
  for (int iter = 0; iter < 64; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (expected(mid) > x_prime) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::clamp(-std::log2(hi) / static_cast<double>(kBlockBits), 0.0,
                    1.0) +
         0.0;  // fold away -0.0
}

// --- §6.3.5 / §6.3.6 tuple estimates --------------------------------------

double t_tuple_estimate(const BitStream& s) {
  RINGENT_REQUIRE(s.size() >= 69, "t-tuple estimate needs at least 69 bits");
  return t_tuple_from_scan(scan_tuples(s), s.size());
}

double lrs_estimate(const BitStream& s) {
  RINGENT_REQUIRE(s.size() >= 69, "LRS estimate needs at least 69 bits");
  const double h = lrs_from_scan(scan_tuples(s), s.size());
  RINGENT_REQUIRE(h >= 0.0,
                  "LRS estimate needs a repeated tuple wider than the "
                  "35-occurrence region (within the width cap)");
  return h;
}

// --- autocorrelation ------------------------------------------------------

std::vector<double> bit_autocorrelation(const BitStream& s,
                                        std::size_t max_lag) {
  RINGENT_REQUIRE(max_lag >= 1, "autocorrelation needs at least one lag");
  RINGENT_REQUIRE(s.size() > max_lag,
                  "autocorrelation needs more bits than lags");
  const std::size_t n = s.size();
  const double mu = static_cast<double>(s.ones()) / static_cast<double>(n);
  const double c0 = static_cast<double>(s.ones()) * (1.0 - mu) * (1.0 - mu) +
                    static_cast<double>(s.zeros()) * mu * mu;
  std::vector<double> out(max_lag, 0.0);
  if (c0 == 0.0) return out;  // constant stream: defined as zero
  for (std::size_t k = 1; k <= max_lag; ++k) {
    double ck = 0.0;
    for (std::size_t i = 0; i + k < n; ++i) {
      ck += (static_cast<double>(s.bit_unchecked(i)) - mu) *
            (static_cast<double>(s.bit_unchecked(i + k)) - mu);
    }
    out[k - 1] = ck / c0;
  }
  return out;
}

// --- battery --------------------------------------------------------------

void Entropy90bConfig::validate() const {
  RINGENT_REQUIRE(autocorrelation_lags <= 64,
                  "autocorrelation_lags must be at most 64");
}

namespace {

using namespace fields;

constexpr auto kConfigFields = fields::spec<Entropy90bConfig>(
    "ringent.entropy90b-spec/1", nullptr,
    optional("mcv", &Entropy90bConfig::mcv, Boolean{}),
    optional("collision", &Entropy90bConfig::collision, Boolean{}),
    optional("markov", &Entropy90bConfig::markov, Boolean{}),
    optional("compression", &Entropy90bConfig::compression, Boolean{}),
    optional("t_tuple", &Entropy90bConfig::t_tuple, Boolean{}),
    optional("lrs", &Entropy90bConfig::lrs, Boolean{}),
    optional("autocorrelation_lags", &Entropy90bConfig::autocorrelation_lags,
             Integer{.max = 64}));

}  // namespace

RINGENT_FIELDS_JSON(Entropy90bConfig, kConfigFields)

Json Entropy90bResult::to_json() const {
  Json json = Json::object();
  json.set("bits", static_cast<std::uint64_t>(bits));
  json.set("h_mcv", h_mcv);
  json.set("h_collision", h_collision);
  json.set("h_markov", h_markov);
  json.set("h_compression", h_compression);
  json.set("h_t_tuple", h_t_tuple);
  json.set("h_lrs", h_lrs);
  json.set("min_entropy", min_entropy);
  Json lags = Json::array();
  for (const double value : autocorrelation) lags.push_back(value);
  json.set("autocorrelation", std::move(lags));
  return json;
}

Entropy90bResult estimate_entropy90b(const BitStream& s,
                                     const Entropy90bConfig& config) {
  config.validate();
  Entropy90bResult result;
  result.bits = s.size();
  const std::size_t n = s.size();
  if (config.mcv && n >= 2) result.h_mcv = mcv_estimate(s);
  if (config.collision && n >= 8) result.h_collision = collision_estimate(s);
  if (config.markov && n >= 2) result.h_markov = markov_estimate(s);
  if (config.compression && n >= 6012) {
    result.h_compression = compression_estimate(s);
  }
  if ((config.t_tuple || config.lrs) && n >= 69) {
    const TupleScan scan = scan_tuples(s);
    if (config.t_tuple) result.h_t_tuple = t_tuple_from_scan(scan, n);
    if (config.lrs) result.h_lrs = lrs_from_scan(scan, n);
  }
  for (const double h :
       {result.h_mcv, result.h_collision, result.h_markov,
        result.h_compression, result.h_t_tuple, result.h_lrs}) {
    if (h >= 0.0 && (result.min_entropy < 0.0 || h < result.min_entropy)) {
      result.min_entropy = h;
    }
  }
  if (config.autocorrelation_lags > 0 && n > 1) {
    const std::size_t lags = std::min(config.autocorrelation_lags, n - 1);
    result.autocorrelation = bit_autocorrelation(s, lags);
  }
  return result;
}

// --- restart validation ---------------------------------------------------

BitStream RestartMatrix::row_stream() const { return bits; }

BitStream RestartMatrix::column_stream() const {
  RINGENT_REQUIRE(bits.size() == rows * cols,
                  "restart matrix bit count mismatch");
  BitStream out;
  out.reserve(bits.size());
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) {
      out.append(bits.bit_unchecked(r * cols + c));
    }
  }
  return out;
}

namespace {

/// log Γ(x) without std::lgamma's write to the global `signgam`, which
/// races when restart matrices are validated on several pool workers.
double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

/// Smallest u with P[Bin(n, p) >= u] <= alpha (exact tail via log-gamma).
std::size_t binomial_cutoff(std::size_t n, double p, double alpha) {
  if (p >= 1.0) return n + 1;
  if (p <= 0.0) return 1;
  const double log_p = std::log(p);
  const double log_q = std::log1p(-p);
  const double lg_n = log_gamma(static_cast<double>(n) + 1.0);
  double tail = 0.0;
  std::vector<double> tails(n + 2, 0.0);
  for (std::size_t j = n + 1; j-- > 0;) {
    const double jd = static_cast<double>(j);
    const double log_pmf = lg_n - log_gamma(jd + 1.0) -
                           log_gamma(static_cast<double>(n - j) + 1.0) +
                           jd * log_p + static_cast<double>(n - j) * log_q;
    tail += std::exp(log_pmf);
    tails[j] = tail;
  }
  for (std::size_t u = 0; u <= n + 1; ++u) {
    if (tails[u] <= alpha) return u;
  }
  return n + 1;
}

}  // namespace

Json RestartValidation::to_json() const {
  Json json = Json::object();
  json.set("h_row", h_row);
  json.set("h_column", h_column);
  json.set("max_row_count", static_cast<std::uint64_t>(max_row_count));
  json.set("max_column_count", static_cast<std::uint64_t>(max_column_count));
  json.set("cutoff_row", static_cast<std::uint64_t>(cutoff_row));
  json.set("cutoff_column", static_cast<std::uint64_t>(cutoff_column));
  json.set("sanity_passed", sanity_passed);
  json.set("validated", validated);
  return json;
}

RestartValidation validate_restarts(const RestartMatrix& matrix,
                                    double h_initial,
                                    const Entropy90bConfig& config) {
  RINGENT_REQUIRE(matrix.rows >= 2 && matrix.cols >= 2,
                  "restart matrix must be at least 2x2");
  RINGENT_REQUIRE(matrix.bits.size() == matrix.rows * matrix.cols,
                  "restart matrix bit count mismatch");
  RINGENT_REQUIRE(h_initial >= 0.0 && h_initial <= 1.0,
                  "h_initial must be in [0, 1]");

  RestartValidation v;
  for (std::size_t r = 0; r < matrix.rows; ++r) {
    std::size_t ones = 0;
    for (std::size_t c = 0; c < matrix.cols; ++c) {
      ones += matrix.bits.bit_unchecked(r * matrix.cols + c) ? 1 : 0;
    }
    v.max_row_count =
        std::max(v.max_row_count, std::max(ones, matrix.cols - ones));
  }
  for (std::size_t c = 0; c < matrix.cols; ++c) {
    std::size_t ones = 0;
    for (std::size_t r = 0; r < matrix.rows; ++r) {
      ones += matrix.bits.bit_unchecked(r * matrix.cols + c) ? 1 : 0;
    }
    v.max_column_count =
        std::max(v.max_column_count, std::max(ones, matrix.rows - ones));
  }

  // §3.1.4.3: alpha = 0.01 over 2000 tests (1000 rows + 1000 columns in
  // the reference procedure); reject when any count reaches the cutoff.
  constexpr double kAlpha = 0.01 / 2000.0;
  const double p = std::exp2(-h_initial);
  v.cutoff_row = binomial_cutoff(matrix.cols, p, kAlpha);
  v.cutoff_column = binomial_cutoff(matrix.rows, p, kAlpha);
  v.sanity_passed =
      v.max_row_count < v.cutoff_row && v.max_column_count < v.cutoff_column;

  v.h_row = estimate_entropy90b(matrix.row_stream(), config).min_entropy;
  v.h_column = estimate_entropy90b(matrix.column_stream(), config).min_entropy;

  if (v.sanity_passed) {
    double validated = h_initial;
    if (v.h_row >= 0.0) validated = std::min(validated, v.h_row);
    if (v.h_column >= 0.0) validated = std::min(validated, v.h_column);
    v.validated = validated;
  } else {
    v.validated = 0.0;
  }
  return v;
}

}  // namespace ringent::analysis
