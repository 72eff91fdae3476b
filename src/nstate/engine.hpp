// Felsenstein pruning and branch optimization over a general state count.
//
// Unlike the 4-state engine (which keeps per-directed-edge CLV caches for
// the search's hot path), this engine favors clarity: partials are computed
// post-order per query. It powers the protein and gap-as-state analyses —
// model-exploration workloads, not the inner loop of the parallel search.
#pragma once

#include <cstdint>
#include <vector>

#include "model/rates.hpp"
#include "nstate/data.hpp"
#include "nstate/model.hpp"
#include "tree/tree.hpp"

namespace fdml {

/// 1-D likelihood along one edge (same role as EdgeLikelihood in the core
/// engine). Valid while the engine and tree are unchanged.
class GeneralEdgeLikelihood {
 public:
  double evaluate(double t, double* d1 = nullptr, double* d2 = nullptr) const;
  /// First and second derivatives at t without the per-pattern log — the
  /// Newton step's entry point. Same bits as evaluate(t, &d1, &d2).
  EdgeDerivatives derivatives(double t) const;

 private:
  friend class GeneralEngine;

  /// Per-pattern probabilities at one branch length; d1/d2 (derivatives
  /// with respect to t) are filled only when requested.
  struct Sites {
    std::vector<double> value;
    std::vector<double> d1;
    std::vector<double> d2;
  };
  Sites contract(double t, bool derivs) const;
  double log_sum(const Sites& sites) const;
  EdgeDerivatives derivative_sum(const Sites& sites) const;

  const GeneralModel* model_ = nullptr;
  const RateModel* rates_ = nullptr;
  int n_ = 0;
  std::size_t num_patterns_ = 0;
  // weighted_[((c * P) + p) * n * n + i * n + j] = prob_c pi_i A_i B_j
  std::vector<double> weighted_;
  std::vector<double> pattern_weights_;
  double scale_offset_ = 0.0;
};

class GeneralEngine {
 public:
  /// `data` must outlive the engine; model and rates are copied.
  GeneralEngine(const StatePatterns& data, GeneralModel model, RateModel rates);

  void attach(const Tree& tree) { tree_ = &tree; }
  const Tree* tree() const { return tree_; }

  double log_likelihood() const;
  GeneralEdgeLikelihood edge_likelihood(int u, int v) const;

  /// Newton-with-bracket optimization of one edge; commits the new length.
  double optimize_edge(Tree& tree, int u, int v) const;
  /// Smoothing passes over all edges (attaches the tree); returns the final
  /// log-likelihood.
  double smooth(Tree& tree, int max_passes = 8);

  const StatePatterns& data() const { return data_; }
  const GeneralModel& model() const { return model_; }

 private:
  struct Partial {
    std::vector<double> values;       // [cat][pattern][state]
    std::vector<std::int32_t> scale;  // per pattern
  };
  /// Conditional likelihoods of the subtree at `node` seen from `from`.
  Partial compute_partial(int node, int from) const;

  const StatePatterns& data_;
  GeneralModel model_;
  RateModel rates_;
  const Tree* tree_ = nullptr;
};

}  // namespace fdml
