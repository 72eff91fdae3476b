#include "likelihood_ladder.hpp"

#include <algorithm>
#include <cstring>
#include <functional>

namespace ladder {
namespace {

using fdml::LikelihoodEngine;

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

constexpr int kReps = 21;
constexpr double kMinRepS = 0.008;

/// Calls of `fn` that one repetition needs to last at least kMinRepS.
std::size_t calibrate(const std::function<void()>& fn) {
  fn();  // warm caches and lazy state
  std::size_t calls = 1;
  for (;;) {
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < calls; ++i) fn();
    if (static_cast<double>(now_ns() - start) * 1e-9 >= kMinRepS) return calls;
    calls *= 2;
  }
}

double rep_seconds_per_call(const std::function<void()>& fn, std::size_t calls) {
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < calls; ++i) fn();
  return static_cast<double>(now_ns() - start) * 1e-9 / static_cast<double>(calls);
}

/// Median seconds per call of `fn` over kReps repetitions.
double seconds_per_call(const std::function<void()>& fn) {
  const std::size_t calls = calibrate(fn);
  std::vector<double> per_call;
  for (int r = 0; r < kReps; ++r) per_call.push_back(rep_seconds_per_call(fn, calls));
  return median(per_call);
}

/// `active` and `baseline` timed in alternating repetitions, so host noise
/// hits both sides of the ratio alike.
struct Paired {
  double active_s = 0.0;
  double speedup = 0.0;  ///< median over repetitions of baseline / active
};

Paired paired_per_call(const std::function<void()>& active,
                       const std::function<void()>& baseline) {
  const std::size_t active_calls = calibrate(active);
  const std::size_t baseline_calls = calibrate(baseline);
  std::vector<double> times;
  std::vector<double> ratios;
  for (int r = 0; r < kReps; ++r) {
    const double a = rep_seconds_per_call(active, active_calls);
    const double b = rep_seconds_per_call(baseline, baseline_calls);
    times.push_back(a);
    ratios.push_back(b / a);
  }
  return {median(times), median(ratios)};
}

volatile double g_sink = 0.0;

/// Branch length every Newton rung starts from (the tree's own lengths are
/// already optimal, where a solve would stop after one evaluation).
constexpr double kNewtonStart = 0.1;

/// An engine attached to `tree` with one captured edge view, built under
/// whichever SIMD backend is active at construction.
struct Rung {
  Rung(const fdml::PatternAlignment& data, const fdml::SubstModel& model,
       const fdml::RateModel& rates, const fdml::Tree& tree)
      : engine(data, model, rates), tree(tree) {
    engine.attach(tree);
    const auto edge = tree.edges().front();
    view = engine.edge_likelihood(edge.first, edge.second);
  }
  void full_tree() {
    engine.attach(tree);
    g_sink = engine.log_likelihood();
  }
  /// Newton reuses the captured view; full_tree() must not run in between.
  void newton() {
    g_sink = fdml::newton_branch_solve(view, kNewtonStart, fdml::OptimizeOptions{});
  }

  LikelihoodEngine engine;
  const fdml::Tree& tree;
  fdml::EdgeLikelihood view;
};

void run_rungs(const fdml::PatternAlignment& data, const fdml::SubstModel& model,
               const fdml::RateModel& rates, const fdml::Tree& tree,
               const std::string& suffix, Metrics& out) {
  // Two engines per backend: one keeps its Newton view while the other
  // re-attaches for full_tree. The scalar pair is built while the scalar
  // backend is pinned; the active backend is restored afterwards.
  Rung active_tree(data, model, rates, tree);
  Rung active_newton(data, model, rates, tree);
  const fdml::simd::Backend previous = fdml::simd::active_backend();
  const bool was_pinned = fdml::simd::backend_pinned();
  fdml::simd::set_backend("scalar");
  Rung scalar_tree(data, model, rates, tree);
  Rung scalar_newton(data, model, rates, tree);
  fdml::simd::set_backend(was_pinned ? fdml::simd::backend_name(previous)
                                     : "auto");

  const Paired full = paired_per_call([&] { active_tree.full_tree(); },
                                      [&] { scalar_tree.full_tree(); });
  const Paired newton = paired_per_call([&] { active_newton.newton(); },
                                        [&] { scalar_newton.newton(); });
  out["likelihood.full_tree_us" + suffix] = full.active_s * 1e6;
  out["likelihood.full_tree_speedup" + suffix] = full.speedup;
  out["likelihood.newton_us" + suffix] = newton.active_s * 1e6;
  out["likelihood.newton_speedup" + suffix] = newton.speedup;

  LikelihoodEngine& engine = active_tree.engine;
  engine.attach(tree);
  g_sink = engine.log_likelihood();
  const auto edges = tree.edges();
  for (const auto& [u, v] : edges) engine.edge_likelihood(u, v);  // fill CLVs
  out["likelihood.edge_capture_us" + suffix] =
      seconds_per_call([&] {
        for (const auto& [u, v] : edges) engine.edge_likelihood(u, v);
      }) /
      static_cast<double>(edges.size()) * 1e6;

  {
    fdml::BatchEdgeEvaluator batch(engine);
    std::vector<fdml::BatchEdgeEvaluator::Edge> chunk;
    for (const auto& [u, v] : edges) {
      if (chunk.size() == fdml::TaskEvaluator::kChunk) break;
      chunk.push_back({u, v});
    }
    out["likelihood.batch_capture_us" + suffix] =
        seconds_per_call([&] { batch.capture(chunk); }) * 1e6;
  }

  const fdml::EdgeLikelihood view =
      engine.edge_likelihood(edges.front().first, edges.front().second);
  static constexpr double kLengths[8] = {0.005, 0.01, 0.02, 0.05,
                                         0.1,   0.2,  0.35, 0.5};
  std::size_t k = 0;
  out["likelihood.evaluate_ns" + suffix] =
      seconds_per_call([&] { g_sink = view.evaluate(kLengths[k++ & 7]); }) * 1e9;
  out["likelihood.evaluate_d2_ns" + suffix] =
      seconds_per_call([&] {
        double d1 = 0.0;
        double d2 = 0.0;
        g_sink = view.evaluate(kLengths[k++ & 7], &d1, &d2);
        g_sink = d1 + d2;
      }) *
      1e9;

  const std::uint64_t evals_before = engine.counters().edge_evaluations;
  constexpr int kSolves = 64;
  for (int i = 0; i < kSolves; ++i) {
    g_sink = fdml::newton_branch_solve(view, kNewtonStart, fdml::OptimizeOptions{});
  }
  out["likelihood.evals_per_newton" + suffix] =
      static_cast<double>(engine.counters().edge_evaluations - evals_before) /
      kSolves;
}

}  // namespace

ReplayCheck run_likelihood_ladder(const fdml::PatternAlignment& data,
                                  const fdml::SubstModel& model,
                                  const fdml::Tree& tree,
                                  const std::vector<RecordedRound>& rounds,
                                  Metrics& out) {
  run_rungs(data, model, fdml::RateModel::uniform(), tree, "", out);
  run_rungs(data, model, fdml::RateModel::discrete_gamma(0.5, 4), tree,
            ".gamma4", out);

  ReplayCheck check;
  fdml::TaskEvaluator evaluator(data, model, fdml::RateModel::uniform());
  const fdml::KernelCounters before = evaluator.engine().counters();
  double replay_s = 0.0;
  for (const RecordedRound& round : rounds) {
    const std::int64_t start = now_ns();
    const std::vector<fdml::TaskResult> results =
        evaluator.evaluate_batch(round.tasks);
    replay_s += static_cast<double>(now_ns() - start) * 1e-9;

    double best = results.front().log_likelihood;
    for (std::size_t i = 0; i < results.size(); ++i) {
      check.replay_bytes += fdml::wire_bytes(round.tasks[i], results[i]);
      best = std::max(best, results[i].log_likelihood);
    }
    check.rounds += 1;
    check.tasks += round.tasks.size();
    check.stat_bytes += round.stat_bytes;
    if (std::memcmp(&best, &round.best_log_likelihood, sizeof best) != 0) {
      check.best_mismatches += 1;
    }
  }
  const fdml::KernelCounters after = evaluator.engine().counters();
  const auto hits = after.transition_hits - before.transition_hits;
  const auto misses = after.transition_misses - before.transition_misses;
  out["likelihood.kernel_share"] =
      static_cast<double>(after.kernel_ns - before.kernel_ns) * 1e-9 / replay_s;
  out["likelihood.edge_evaluations"] =
      static_cast<double>(after.edge_evaluations - before.edge_evaluations);
  out["likelihood.clv_computations"] =
      static_cast<double>(after.clv_computations - before.clv_computations);
  out["likelihood.transition_hit_rate"] =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
  out["likelihood.replay_s"] = replay_s;
  return check;
}

}  // namespace ladder
