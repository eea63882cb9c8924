// Tests for the closed-form steady-state model (ring/analytic.hpp) —
// validated against both the paper's formulas and the event simulator.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/periods.hpp"
#include "common/require.hpp"
#include "common/stats.hpp"
#include "core/calibration.hpp"
#include "ring/analytic.hpp"
#include "ring/str.hpp"

using namespace ringent;
using namespace ringent::literals;
using ring::CharlieParams;
using ring::predict_steady_state;

TEST(Analytic, NtEqNbReducesToThePaperFormula) {
  const CharlieParams params = CharlieParams::symmetric(260_ps, 123_ps);
  const auto pred = predict_steady_state(params, 0_ps, 32, 16);
  EXPECT_NEAR(pred.period.ps(), 4.0 * (260.0 + 123.0), 1e-6);
  EXPECT_NEAR(pred.separation.ps(), 0.0, 1e-9);
  EXPECT_NEAR(pred.locking_margin, 1.0, 1e-9);
  EXPECT_NEAR(pred.forward_hop.ps(), pred.reverse_hop.ps(), 1e-9);
  // Hop latencies: d_f = NT T / (2L) = T/4 here.
  EXPECT_NEAR(pred.forward_hop.ps(), pred.period.ps() / 4.0, 1e-9);
}

TEST(Analytic, RoutingAddsInSeries) {
  const CharlieParams params = CharlieParams::symmetric(260_ps, 123_ps);
  const auto without = predict_steady_state(params, 0_ps, 16, 8);
  const auto with = predict_steady_state(params, 50_ps, 16, 8);
  EXPECT_NEAR(with.period.ps() - without.period.ps(), 4.0 * 50.0, 1e-6);
}

// Sweep NT at fixed L: the closed form must match the event simulation to
// better than 0.5% (homogeneous, noise-free).
class AnalyticVsSimulation : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AnalyticVsSimulation, PeriodMatchesEventSimulation) {
  const std::size_t tokens = GetParam();
  const std::size_t stages = 32;
  const CharlieParams params = CharlieParams::symmetric(260_ps, 123_ps);

  const auto pred = predict_steady_state(params, 0_ps, stages, tokens);
  ring::StrConfig config;
  config.stages = stages;
  config.charlie = params;
  ring::Str str(config,
                ring::make_initial_state(stages, tokens,
                                         ring::TokenPlacement::evenly_spread),
                {});
  str.output().set_record_from(Time::from_ns(500.0));
  str.start();
  str.run_until(Time::from_us(6.0));
  const auto periods = analysis::periods_ps(str.output());
  ASSERT_GE(periods.size(), 50u) << "NT=" << tokens;
  const double simulated = describe(periods).mean();

  EXPECT_NEAR(simulated / pred.period.ps(), 1.0, 0.005)
      << "NT=" << tokens << " predicted " << pred.period.ps() << " ps";
}

INSTANTIATE_TEST_SUITE_P(TokenSweep, AnalyticVsSimulation,
                         ::testing::Values(2, 4, 6, 8, 10, 12, 14, 16, 18, 20,
                                           22, 24, 26, 28, 30));

TEST(Analytic, AsymmetricStageMatchesSimulation) {
  // Dff != Drr: the ideal token count moves off L/2 (paper Eq. 1).
  const CharlieParams params{200_ps, 320_ps, 100_ps};
  EXPECT_NEAR(ring::ideal_token_count(params, 26),
              26.0 * 200.0 / 520.0, 1e-9);

  const auto pred = predict_steady_state(params, 0_ps, 26, 10);
  ring::StrConfig config;
  config.stages = 26;
  config.charlie = params;
  ring::Str str(config,
                ring::make_initial_state(26, 10,
                                         ring::TokenPlacement::evenly_spread),
                {});
  str.output().set_record_from(Time::from_ns(500.0));
  str.start();
  str.run_until(Time::from_us(6.0));
  const auto periods = analysis::periods_ps(str.output());
  ASSERT_GE(periods.size(), 50u);
  EXPECT_NEAR(describe(periods).mean() / pred.period.ps(), 1.0, 0.005);
}

TEST(Analytic, TokenBubbleDualityInTheFormula) {
  const CharlieParams params = CharlieParams::symmetric(260_ps, 123_ps);
  const auto a = predict_steady_state(params, 0_ps, 32, 6);
  const auto b = predict_steady_state(params, 0_ps, 32, 26);
  EXPECT_NEAR(a.period.ps(), b.period.ps(), 1e-6);
  EXPECT_NEAR(a.separation.ps(), -b.separation.ps(), 1e-6);
  EXPECT_NEAR(a.locking_margin, b.locking_margin, 1e-9);
}

TEST(Analytic, MarginShrinksTowardExtremeRatiosAndSmallDch) {
  const CharlieParams strong = CharlieParams::symmetric(260_ps, 123_ps);
  const auto center = predict_steady_state(strong, 0_ps, 32, 16);
  const auto edge = predict_steady_state(strong, 0_ps, 32, 2);
  EXPECT_GT(center.locking_margin, edge.locking_margin);

  const CharlieParams weak = CharlieParams::symmetric(260_ps, 5_ps);
  const auto weak_edge = predict_steady_state(weak, 0_ps, 32, 2);
  EXPECT_LT(weak_edge.locking_margin, 0.05);
  EXPECT_GT(edge.locking_margin, weak_edge.locking_margin);
}

TEST(Analytic, FrequencyOfCalibratedRingsMatchesPaper) {
  const auto& cal = core::cyclone_iii();
  const CharlieParams params =
      CharlieParams::symmetric(cal.str_d_static, cal.str_d_charlie);
  const auto p96 = predict_steady_state(
      params, cal.str_routing.per_hop_delay(96), 96, 48);
  EXPECT_NEAR(p96.frequency_mhz, 320.0, 2.0);
  const auto p4 = predict_steady_state(params, cal.str_routing.per_hop_delay(4),
                                       4, 2);
  EXPECT_NEAR(p4.frequency_mhz, 653.0, 2.0);
}

TEST(Analytic, Preconditions) {
  const CharlieParams params = CharlieParams::symmetric(260_ps, 123_ps);
  EXPECT_THROW(predict_steady_state(params, 0_ps, 8, 3), PreconditionError);
  EXPECT_THROW(predict_steady_state(params, 0_ps, 8, 8), PreconditionError);
  EXPECT_THROW(predict_steady_state(params, -1_ps, 8, 4), PreconditionError);
  EXPECT_THROW(ring::ideal_token_count(params, 2), PreconditionError);
}
