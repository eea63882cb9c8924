#include "core/render.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "analysis/regression.hpp"
#include "ring/analytic.hpp"

namespace ringent::core {

namespace {

std::string format(const char* fmt, ...) {
  char buffer[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  return buffer;
}

/// A least-squares fit needs two x values that are well apart.
bool spans(const std::vector<double>& xs) {
  if (xs.size() < 2) return false;
  const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
  return *hi - *lo > 1e-6;
}

bool all_positive(const std::vector<double>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return v > 0.0; });
}

/// "-" for an estimator that did not run (negative sentinel).
std::string fmt_entropy(double h) { return h < 0.0 ? "-" : fmt_double(h, 4); }

std::string fmt_count(std::int64_t bits) {
  return bits < 0 ? "-" : std::to_string(bits);
}

}  // namespace

std::string Rendering::text() const {
  std::string out = table.str();
  for (const auto& line : headlines) out += line + "\n";
  return out;
}

Rendering render(const VoltageSweepSpec&, const VoltageSweepResult& result,
                 const Calibration&) {
  Rendering out{Table({"V (V)", "F (MHz)", "Fn"}), {}};
  std::vector<double> volts, normalized;
  for (const auto& p : result.points) {
    out.table.add_row({fmt_double(p.voltage_v, 2),
                       fmt_double(p.frequency_mhz, 2),
                       fmt_double(p.normalized, 4)});
    volts.push_back(p.voltage_v);
    normalized.push_back(p.normalized);
  }
  std::string line = result.spec.name();
  if (spans(volts)) {
    const auto fit = analysis::linear_fit(volts, normalized);
    line += format("  slope = %.3f /V   R^2 = %.6f", fit.slope, fit.r2);
  }
  line += "   F_nom = " + fmt_mhz(result.f_nominal_mhz) +
          "   dF = " + fmt_percent(result.excursion, 1);
  out.headlines.push_back(line);
  return out;
}

Rendering render(const TemperatureSweepSpec&,
                 const TemperatureSweepResult& result, const Calibration&) {
  Rendering out{Table({"T (C)", "F (MHz)", "Fn"}), {}};
  for (const auto& p : result.points) {
    out.table.add_row({fmt_double(p.temperature_c, 0),
                       fmt_double(p.frequency_mhz, 2),
                       fmt_double(p.normalized, 4)});
  }
  out.headlines.push_back(result.spec.name() + "  dF = " +
                          fmt_percent(result.excursion, 2) + "   (F(25C) = " +
                          fmt_mhz(result.f_nominal_mhz) + ")");
  return out;
}

Rendering render(const ProcessVariabilitySpec& spec,
                 const ProcessVariabilityResult& result,
                 const Calibration& calibration) {
  Rendering out{Table({"board", "F (MHz)"}), {}};
  for (const auto& b : result.boards) {
    out.table.add_row(
        {std::to_string(b.board), fmt_double(b.frequency_mhz, 2)});
  }
  // Model-expected population sigma_rel: global spread plus per-LUT
  // mismatch averaged over the ring's stages.
  const double global = calibration.process.global_sigma;
  const double mismatch = calibration.process.lut_mismatch_sigma;
  const double expected = std::sqrt(
      global * global +
      mismatch * mismatch / static_cast<double>(spec.ring.stages));
  out.headlines.push_back(format(
      "%s over %zu boards: mean = %s   sigma_rel = %s   model expect = %s",
      result.spec.name().c_str(), result.boards.size(),
      fmt_mhz(result.mean_mhz).c_str(),
      fmt_percent(result.sigma_rel, 2).c_str(),
      fmt_percent(expected, 2).c_str()));
  return out;
}

Rendering render(const JitterSweepSpec& spec,
                 const std::vector<JitterPoint>& result, const Calibration&) {
  // Per-gate jitter by the ring kind's own law: Eq. 7 for an IRO, the
  // inverse of Eq. 5 for an STR.
  Rendering out{Table({"stages", "T (ps)", "sigma_p method", "sigma_p truth",
                       spec.kind == RingKind::iro
                           ? "sigma_g = sigma_p/sqrt(2k)"
                           : "sigma_g = sigma_p/sqrt(2)"}),
                {}};
  std::vector<double> stages, method, truth;
  for (const auto& p : result) {
    out.table.add_row({std::to_string(p.stages),
                       fmt_double(p.mean_period_ps, 1), fmt_ps(p.sigma_p_ps),
                       fmt_ps(p.sigma_direct_ps), fmt_ps(p.sigma_g_ps)});
    stages.push_back(static_cast<double>(p.stages));
    method.push_back(p.sigma_p_ps);
    truth.push_back(p.sigma_direct_ps);
  }
  if (result.empty()) return out;
  // An IRO's jitter grows as sqrt(k) (Eq. 4); an STR's is flat in its
  // length (Eq. 5). Each kind's headline is its own law.
  if (spec.kind == RingKind::iro) {
    const auto sqrt_fit = analysis::sqrt_law_fit(stages, method);
    out.headlines.push_back(
        format("sqrt-law fit:  sigma_p = %.2f ps * sqrt(k)   (R^2 = %.4f)   "
               "=> sigma_g = %.2f ps",
               sqrt_fit.coefficient, sqrt_fit.r2,
               sqrt_fit.coefficient / std::sqrt(2.0)));
  }
  if (spans(stages) && all_positive(method) && all_positive(truth)) {
    out.headlines.push_back(
        format("free-exponent fit: sigma_p method ~ k^%.3f   truth ~ k^%.3f",
               analysis::power_law_fit(stages, method).exponent,
               analysis::power_law_fit(stages, truth).exponent));
  }
  if (spec.kind == RingKind::str) {
    const auto [lo, hi] = std::minmax_element(truth.begin(), truth.end());
    out.headlines.push_back(
        format("flatness: truth max-min over the stage counts = %.2f ps",
               *hi - *lo));
  }
  return out;
}

Rendering render(const ModeMapSpec& spec,
                 const std::vector<ModeMapEntry>& result,
                 const Calibration& calibration) {
  Rendering out{Table({"NT", "NT/NB", "mode", "interval CV", "F sim (MHz)",
                       "F model (MHz)", "locking margin"}),
                {}};
  // The closed-form steady state (ring/analytic.hpp) on the same Charlie
  // magnitude the driver simulated with.
  Time d_charlie = calibration.str_d_charlie.scaled(spec.charlie_scale);
  if (d_charlie.is_zero()) d_charlie = Time::from_ps(1e-3);
  const ring::CharlieParams charlie =
      ring::CharlieParams::symmetric(calibration.str_d_static, d_charlie);
  const Time routing = calibration.str_routing.per_hop_delay(spec.stages);
  std::size_t evenly_spaced = 0;
  for (const auto& entry : result) {
    std::string f_model = "-";
    std::string margin = "-";
    try {
      const auto pred = ring::predict_steady_state(charlie, routing,
                                                   spec.stages, entry.tokens);
      f_model = fmt_double(pred.frequency_mhz, 1);
      margin = fmt_double(pred.locking_margin, 3);
    } catch (const Error&) {
      // No closed-form steady state for this token count: the simulation
      // column stands alone.
    }
    if (entry.mode == ring::OscillationMode::evenly_spaced) ++evenly_spaced;
    out.table.add_row(
        {std::to_string(entry.tokens),
         fmt_double(static_cast<double>(entry.tokens) /
                        static_cast<double>(spec.stages - entry.tokens),
                    2),
         ring::to_string(entry.mode), fmt_double(entry.interval_cv, 4),
         fmt_double(entry.frequency_mhz, 1), f_model, margin});
  }
  out.headlines.push_back(format(
      "STR %zuC, %s start: evenly spaced for %zu of %zu token counts",
      spec.stages, to_string(spec.placement), evenly_spaced,
      result.size()));
  return out;
}

Rendering render(const RestartSpec&, const RestartResult& result,
                 const Calibration&) {
  Rendering out{Table({"k", "spread"}), {}};
  for (const auto& p : result.points) {
    out.table.add_row({std::to_string(p.edge), fmt_ps(p.spread_ps)});
  }
  if (!result.points.empty()) {
    // The spread at the first edge, a quarter of the way in and the last.
    const RestartPoint& first = result.points.front();
    const RestartPoint& quarter = result.points[result.points.size() / 4];
    const RestartPoint& last = result.points.back();
    out.headlines.push_back(format(
        "%s  spread@k=%zu = %s   spread@k=%zu = %s   spread@k=%zu = %s",
        result.spec.name().c_str(), first.edge,
        fmt_ps(first.spread_ps).c_str(), quarter.edge,
        fmt_ps(quarter.spread_ps, 1).c_str(), last.edge,
        fmt_ps(last.spread_ps, 1).c_str()));
  }
  out.headlines.push_back(
      result.spec.name() + "  control (same seed): " +
      (result.control_identical ? "identical (0 ps)" : "BROKEN") +
      "   diffusion = " + fmt_ps(result.diffusion_per_edge_ps) +
      "/sqrt(k)   R^2 of sqrt fit = " + fmt_double(result.fit_r2, 3));
  return out;
}

Rendering render(const CoherentSweepSpec&, const CoherentSweepResult& result,
                 const Calibration&) {
  Rendering out{Table({"board", "half-beat (samples)", "implied detune",
                       "LSB bias", "bits"}),
                {}};
  for (const auto& b : result.boards) {
    out.table.add_row({std::to_string(b.board),
                       fmt_double(b.half_beat_samples, 1),
                       fmt_percent(b.implied_detune, 3),
                       fmt_double(b.lsb_bias, 3), std::to_string(b.bits)});
  }
  out.headlines.push_back(
      result.spec.name() + "  design detune = " +
      fmt_percent(result.design_detune, 3) + "   implied mean = " +
      fmt_percent(result.detune_mean, 3) + " (sigma " +
      fmt_percent(result.detune_sigma, 3) + ")   worst deviation = " +
      fmt_percent(result.worst_deviation, 3));
  return out;
}

Rendering render(const DeterministicJitterSpec& spec,
                 const std::vector<DeterministicJitterPoint>& result,
                 const Calibration&) {
  Rendering out{Table({"stages", "T (ps)", "tone (ps)", "tone / T",
                       "random (ps)"}),
                {}};
  for (const auto& p : result) {
    out.table.add_row({std::to_string(p.stages),
                       fmt_double(p.mean_period_ps, 1), fmt_ps(p.tone_ps),
                       fmt_percent(p.tone_relative, 3), fmt_ps(p.random_ps)});
  }
  out.headlines.push_back(format(
      "supply tone: %.1f mV at %.3f MHz", spec.modulation_amplitude_v * 1e3,
      spec.modulation_frequency_hz / 1e6));
  return out;
}

Rendering render(const EntropyMapSpec&, const EntropyMapResult& result,
                 const Calibration&) {
  Rendering out{Table({"ring", "T_s (ns)", "H_mcv", "H_coll", "H_markov",
                       "H_ttup", "H_lrs", "H_min", "restart"}),
                {}};
  for (const auto& cell : result.cells) {
    out.table.add_row(
        {cell.ring.name(), fmt_double(cell.sampling_period.ns(), 0),
         fmt_entropy(cell.estimate.h_mcv),
         fmt_entropy(cell.estimate.h_collision),
         fmt_entropy(cell.estimate.h_markov),
         fmt_entropy(cell.estimate.h_t_tuple),
         fmt_entropy(cell.estimate.h_lrs),
         fmt_entropy(cell.estimate.min_entropy),
         cell.restart_run ? fmt_double(cell.restart.validated, 4) : "-"});
  }
  out.headlines.push_back("floor over the map: H_min = " +
                          fmt_double(result.floor_min_entropy, 4) +
                          " bits/bit");
  return out;
}

Rendering render(const AttackResilienceSpec& spec,
                 const AttackResilienceResult& result, const Calibration&) {
  Rendering out{Table({"Ring", "Scenario", "final", "detect@bit",
                       "recover(bits)", "muted", "alarms", "relocks",
                       "failover", "post-bias"}),
                {}};
  for (const auto& cell : result.cells) {
    out.table.add_row(
        {cell.ring.name(), cell.scenario, trng::to_string(cell.final_state),
         fmt_count(cell.detection_latency_bits),
         fmt_count(cell.recovery_bits), fmt_percent(cell.muted_fraction, 1),
         std::to_string(cell.rct_alarms + cell.apt_alarms),
         std::to_string(cell.relock_attempts),
         cell.failovers > 0 ? "yes" : "-",
         fmt_double(cell.post_attack_bias, 3)});
  }
  out.headlines.push_back(format(
      "%zu bits/cell at %.0f ns sampling; policy: H >= %.2f, backoff %llu, "
      "probation %llu, %u strikes; %llu health-state transitions",
      spec.total_bits, spec.sampling_period.ns(),
      spec.policy.claimed_min_entropy,
      static_cast<unsigned long long>(spec.policy.backoff_bits),
      static_cast<unsigned long long>(spec.policy.probation_bits),
      spec.policy.max_strikes,
      static_cast<unsigned long long>(result.total_transitions)));
  return out;
}

Rendering render(const EntropyServiceSpec& spec,
                 const EntropyServiceResult& result, const Calibration&) {
  // Only the stream's content: the worker count and the throughput depend
  // on --jobs and the host, and the run manifest carries the timing.
  Rendering out{Table({"bytes delivered", "requests", "raw bits in",
                       "slots failed", "stream FNV-1a"}),
                {}};
  out.table.add_row({std::to_string(result.bytes_delivered),
                     std::to_string(result.requests),
                     std::to_string(result.raw_bits_in),
                     std::to_string(result.slots_failed),
                     format("%016llx", static_cast<unsigned long long>(
                                           result.stream_fnv))});
  out.headlines.push_back(format(
      "%zu %s slots, %s conditioner /%zu", spec.slots,
      spec.synthetic ? "synthetic" : spec.ring.name().c_str(),
      service::conditioner_kind_name(spec.conditioner),
      spec.conditioner_ratio));
  return out;
}

}  // namespace ringent::core
