// Simulation time: a strong integer type counting femtoseconds.
//
// Analog jitter in the reproduced paper is on the order of 2 ps per LUT, so a
// femtosecond grid keeps quantization three orders of magnitude below the
// smallest physical quantity of interest while int64 still covers ±106 days
// of simulated time. All delays and timestamps inside the ring event loops use
// Time; statistics convert to double picoseconds at the analysis boundary.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <iosfwd>
#include <limits>

namespace ringent {

class Time {
 public:
  constexpr Time() = default;

  /// Named constructors. `from_ps`/`from_ns` round to the nearest femtosecond.
  static constexpr Time from_fs(std::int64_t fs) { return Time{fs}; }
  static Time from_ps(double ps) { return Time{to_i64(ps * 1e3)}; }
  static Time from_ns(double ns) { return Time{to_i64(ns * 1e6)}; }
  static Time from_us(double us) { return Time{to_i64(us * 1e9)}; }
  static Time from_ms(double ms) { return Time{to_i64(ms * 1e12)}; }
  static Time from_seconds(double s) { return Time{to_i64(s * 1e15)}; }

  constexpr std::int64_t fs() const { return fs_; }
  constexpr double ps() const { return static_cast<double>(fs_) * 1e-3; }
  constexpr double ns() const { return static_cast<double>(fs_) * 1e-6; }
  constexpr double seconds() const { return static_cast<double>(fs_) * 1e-15; }

  static constexpr Time zero() { return Time{0}; }
  static constexpr Time max() {
    return Time{std::numeric_limits<std::int64_t>::max()};
  }

  constexpr bool is_zero() const { return fs_ == 0; }
  constexpr bool is_negative() const { return fs_ < 0; }

  friend constexpr auto operator<=>(Time, Time) = default;

  constexpr Time& operator+=(Time rhs) {
    fs_ += rhs.fs_;
    return *this;
  }
  constexpr Time& operator-=(Time rhs) {
    fs_ -= rhs.fs_;
    return *this;
  }
  friend constexpr Time operator+(Time a, Time b) { return Time{a.fs_ + b.fs_}; }
  friend constexpr Time operator-(Time a, Time b) { return Time{a.fs_ - b.fs_}; }
  friend constexpr Time operator-(Time a) { return Time{-a.fs_}; }
  friend constexpr Time operator*(Time a, std::int64_t k) {
    return Time{a.fs_ * k};
  }
  friend constexpr Time operator*(std::int64_t k, Time a) { return a * k; }
  friend constexpr Time operator/(Time a, std::int64_t k) {
    return Time{a.fs_ / k};
  }
  /// Ratio of two durations as a double (e.g. phase fractions).
  friend constexpr double operator/(Time a, Time b) {
    return static_cast<double>(a.fs_) / static_cast<double>(b.fs_);
  }

  /// Scale a duration by a dimensionless double, rounding to nearest fs.
  Time scaled(double factor) const {
    return Time{to_i64(static_cast<double>(fs_) * factor)};
  }

 private:
  constexpr explicit Time(std::int64_t fs) : fs_(fs) {}
  static std::int64_t to_i64(double fs) {
    // llround semantics (round half away from zero), via the single-cycle
    // round-to-nearest-even conversion plus an exact-tie fixup. Ties are the
    // only inputs where the two rounding rules differ, and a tie at +-0.5
    // can only occur below 2^52 where the subtraction is exact — asserted
    // equivalent to std::llround over ties and a dense value sweep by
    // tests/test_hot_path.cpp.
    auto i = static_cast<std::int64_t>(std::rint(fs));
    const double diff = fs - static_cast<double>(i);
    if (diff == 0.5 && fs > 0.0) {
      ++i;
    } else if (diff == -0.5 && fs < 0.0) {
      --i;
    }
    return i;
  }

  std::int64_t fs_ = 0;
};

std::ostream& operator<<(std::ostream& os, Time t);

/// Convert an oscillation period to a frequency in MHz (0 if period is 0).
double period_to_mhz(Time period);

/// Convert a frequency in MHz to the corresponding period.
Time mhz_to_period(double mhz);

namespace literals {
constexpr Time operator""_fs(unsigned long long v) {
  return Time::from_fs(static_cast<std::int64_t>(v));
}
inline Time operator""_ps(unsigned long long v) {
  return Time::from_fs(static_cast<std::int64_t>(v) * 1000);
}
inline Time operator""_ps(long double v) {
  return Time::from_ps(static_cast<double>(v));
}
inline Time operator""_ns(unsigned long long v) {
  return Time::from_fs(static_cast<std::int64_t>(v) * 1'000'000);
}
inline Time operator""_ns(long double v) {
  return Time::from_ns(static_cast<double>(v));
}
inline Time operator""_us(unsigned long long v) {
  return Time::from_fs(static_cast<std::int64_t>(v) * 1'000'000'000);
}
}  // namespace literals

}  // namespace ringent
