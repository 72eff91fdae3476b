// The likelihood rungs of the ladder: direct calls into LikelihoodEngine,
// EdgeLikelihood, newton_branch_solve, BatchEdgeEvaluator and
// TaskEvaluator on one fixed tree, timed from outside.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "decorators.hpp"

namespace ladder {

using Metrics = std::map<std::string, double>;

/// Reconciliation of a replay against what the runner reported.
struct ReplayCheck {
  std::uint64_t rounds = 0;
  std::uint64_t tasks = 0;
  std::uint64_t stat_bytes = 0;     ///< sum of TaskStat::bytes as dispatched
  std::uint64_t replay_bytes = 0;   ///< sum of wire_bytes on the replay
  std::uint64_t best_mismatches = 0;  ///< rounds whose best lnL differs
};

/// Runs every rung under uniform rates and again under a discrete-gamma
/// 4-category RateModel (metric names suffixed ".gamma4"), plus the replay
/// of `rounds` through TaskEvaluator::evaluate_batch. Adds "likelihood.*"
/// entries to `out` and returns the replay reconciliation.
ReplayCheck run_likelihood_ladder(const fdml::PatternAlignment& data,
                                  const fdml::SubstModel& model,
                                  const fdml::Tree& tree,
                                  const std::vector<RecordedRound>& rounds,
                                  Metrics& out);

}  // namespace ladder
