// Per-layer metrics of traced runs: derived from a traced iteration's spans
// and manifests, or measured by direct calls into one layer after the timed
// phase. Every traced run reports the same metric set (per_layer_metrics());
// rates and times of a layer the workload bypasses come from a fixed probe
// of that layer, counts of such a layer are 0.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "workloads.hpp"

namespace e2ebench {

/// Every per-layer metric name with its unit, in report order.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// campaign.*, core.*, sim.* and ring.* metrics of one cold pass over the
/// set-up's store (ring.<kind>.* only when the pass ran single-kind
/// entropy_map cells of that kind).
void campaign_layer_metrics(const CampaignSetup& setup, const PassResult& cold,
                            Json& metrics);

/// service.pool.*, service.frontend.* and trng.health.* of one drained round.
void stream_layer_metrics(const StreamRound& round, Json& metrics);

/// Direct calls into trng.resilient, service.conditioner and
/// service.ring_buffer; then fill every per-layer metric still missing from
/// `metrics`: counts with 0, rates and times from a probe campaign
/// (probe_plan) or a probe stream.
void layer_probes(const RunConfig& config, Json& metrics);

}  // namespace e2ebench
