#include "nstate/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace fdml {

namespace {
constexpr double kScaleThreshold = 0x1.0p-256;
constexpr double kScaleFactor = 0x1.0p+256;
constexpr double kLogScaleStep = 256.0 * 0.6931471805599453;
}  // namespace

GeneralEngine::GeneralEngine(const StatePatterns& data, GeneralModel model,
                             RateModel rates)
    : data_(data), model_(std::move(model)), rates_(std::move(rates)) {
  if (model_.num_states() != data.alphabet().num_states()) {
    throw std::invalid_argument("GeneralEngine: model/alphabet state mismatch");
  }
}

GeneralEngine::Partial GeneralEngine::compute_partial(int node, int from) const {
  const std::size_t n = static_cast<std::size_t>(model_.num_states());
  const std::size_t patterns = data_.num_patterns();
  const std::size_t cats = rates_.num_categories();
  const std::size_t stride = patterns * n;

  Partial out;
  out.values.assign(cats * stride, 1.0);
  out.scale.assign(patterns, 0);

  if (tree_->is_tip(node)) {
    for (std::size_t p = 0; p < patterns; ++p) {
      const std::uint32_t mask = data_.at(static_cast<std::size_t>(node), p);
      for (std::size_t c = 0; c < cats; ++c) {
        double* v = &out.values[c * stride + p * n];
        for (std::size_t s = 0; s < n; ++s) {
          v[s] = (mask & (std::uint32_t{1} << s)) ? 1.0 : 0.0;
        }
      }
    }
    return out;
  }

  std::vector<double> pmatrix;
  for (int slot = 0; slot < 3; ++slot) {
    const int child = tree_->neighbor(node, slot);
    if (child == Tree::kNoNode || child == from) continue;
    const Partial child_partial = compute_partial(child, node);
    const double t = tree_->slot_length(node, slot);
    for (std::size_t c = 0; c < cats; ++c) {
      model_.transition(t * rates_.rate(c), pmatrix);
      const double* cv = &child_partial.values[c * stride];
      double* ov = &out.values[c * stride];
      for (std::size_t p = 0; p < patterns; ++p) {
        for (std::size_t i = 0; i < n; ++i) {
          double sum = 0.0;
          for (std::size_t j = 0; j < n; ++j) {
            sum += pmatrix[i * n + j] * cv[p * n + j];
          }
          ov[p * n + i] *= sum;
        }
      }
    }
    for (std::size_t p = 0; p < patterns; ++p) {
      out.scale[p] += child_partial.scale[p];
    }
  }

  // Rescale underflowing patterns.
  for (std::size_t p = 0; p < patterns; ++p) {
    double max_entry = 0.0;
    for (std::size_t c = 0; c < cats; ++c) {
      const double* v = &out.values[c * stride + p * n];
      for (std::size_t s = 0; s < n; ++s) max_entry = std::max(max_entry, v[s]);
    }
    if (max_entry > 0.0 && max_entry < kScaleThreshold) {
      for (std::size_t c = 0; c < cats; ++c) {
        double* v = &out.values[c * stride + p * n];
        for (std::size_t s = 0; s < n; ++s) v[s] *= kScaleFactor;
      }
      out.scale[p] += 1;
    }
  }
  return out;
}

GeneralEdgeLikelihood GeneralEngine::edge_likelihood(int u, int v) const {
  if (tree_ == nullptr) throw std::logic_error("GeneralEngine: attach a tree first");
  const std::size_t n = static_cast<std::size_t>(model_.num_states());
  const std::size_t patterns = data_.num_patterns();
  const std::size_t cats = rates_.num_categories();
  const std::size_t stride = patterns * n;

  const Partial a = compute_partial(u, v);
  const Partial b = compute_partial(v, u);

  GeneralEdgeLikelihood f;
  f.model_ = &model_;
  f.rates_ = &rates_;
  f.n_ = model_.num_states();
  f.num_patterns_ = patterns;
  f.weighted_.assign(cats * patterns * n * n, 0.0);
  f.pattern_weights_.resize(patterns);
  for (std::size_t p = 0; p < patterns; ++p) {
    f.pattern_weights_[p] = data_.weight(p);
  }
  const std::vector<double>& pi = model_.frequencies();
  for (std::size_t c = 0; c < cats; ++c) {
    const double prob = rates_.probability(c);
    for (std::size_t p = 0; p < patterns; ++p) {
      const double* av = &a.values[c * stride + p * n];
      const double* bv = &b.values[c * stride + p * n];
      double* w = &f.weighted_[(c * patterns + p) * n * n];
      for (std::size_t i = 0; i < n; ++i) {
        const double lhs = prob * pi[i] * av[i];
        for (std::size_t j = 0; j < n; ++j) w[i * n + j] = lhs * bv[j];
      }
    }
  }
  double offset = 0.0;
  for (std::size_t p = 0; p < patterns; ++p) {
    offset -= data_.weight(p) * (a.scale[p] + b.scale[p]) * kLogScaleStep;
  }
  f.scale_offset_ = offset;
  return f;
}

double GeneralEdgeLikelihood::evaluate(double t, double* d1, double* d2) const {
  const bool derivs = d1 != nullptr || d2 != nullptr;
  const Sites sites = contract(t, derivs);
  if (derivs) {
    const EdgeDerivatives d = derivative_sum(sites);
    if (d1 != nullptr) *d1 = d.d1;
    if (d2 != nullptr) *d2 = d.d2;
  }
  return log_sum(sites);
}

EdgeDerivatives GeneralEdgeLikelihood::derivatives(double t) const {
  return derivative_sum(contract(t, /*derivs=*/true));
}

GeneralEdgeLikelihood::Sites GeneralEdgeLikelihood::contract(double t,
                                                             bool derivs) const {
  const std::size_t n = static_cast<std::size_t>(n_);
  const std::size_t cats = rates_->num_categories();

  Sites sites;
  sites.value.assign(num_patterns_, 0.0);
  if (derivs) {
    sites.d1.assign(num_patterns_, 0.0);
    sites.d2.assign(num_patterns_, 0.0);
  }
  std::vector<double> p;
  std::vector<double> dp;
  std::vector<double> d2p;
  for (std::size_t c = 0; c < cats; ++c) {
    const double rate = rates_->rate(c);
    if (derivs) {
      model_->transition_with_derivs(t * rate, p, dp, d2p);
    } else {
      model_->transition(t * rate, p);
    }
    for (std::size_t pat = 0; pat < num_patterns_; ++pat) {
      const double* w = &weighted_[(c * num_patterns_ + pat) * n * n];
      double s = 0.0;
      double s1 = 0.0;
      double s2 = 0.0;
      for (std::size_t x = 0; x < n * n; ++x) {
        s += w[x] * p[x];
        if (derivs) {
          s1 += w[x] * dp[x];
          s2 += w[x] * d2p[x];
        }
      }
      sites.value[pat] += s;
      if (derivs) {
        sites.d1[pat] += s1 * rate;
        sites.d2[pat] += s2 * rate * rate;
      }
    }
  }
  return sites;
}

double GeneralEdgeLikelihood::log_sum(const Sites& sites) const {
  double lnl = scale_offset_;
  for (std::size_t pat = 0; pat < num_patterns_; ++pat) {
    const double s = sites.value[pat];
    lnl += pattern_weights_[pat] * (s <= 0.0 ? -1e30 : std::log(s));
  }
  return lnl;
}

EdgeDerivatives GeneralEdgeLikelihood::derivative_sum(const Sites& sites) const {
  EdgeDerivatives d;
  for (std::size_t pat = 0; pat < num_patterns_; ++pat) {
    const double s = sites.value[pat];
    if (s <= 0.0) continue;
    const double weight = pattern_weights_[pat];
    const double r1 = sites.d1[pat] / s;
    d.d1 += weight * r1;
    d.d2 += weight * (sites.d2[pat] / s - r1 * r1);
  }
  return d;
}

double GeneralEngine::log_likelihood() const {
  if (tree_ == nullptr) throw std::logic_error("GeneralEngine: attach a tree first");
  const int root = tree_->any_internal();
  const int nbr = tree_->neighbor(root, 0);
  const GeneralEdgeLikelihood f = edge_likelihood(root, nbr);
  return f.evaluate(tree_->length(root, nbr));
}

double GeneralEngine::optimize_edge(Tree& tree, int u, int v) const {
  const GeneralEdgeLikelihood f = edge_likelihood(u, v);
  double lo = kMinBranchLength;
  double hi = kMaxBranchLength;
  double t = std::clamp(tree.length(u, v), lo, hi);
  for (int iter = 0; iter < 30; ++iter) {
    const auto [d1, d2] = f.derivatives(t);
    if (d1 > 0.0) {
      lo = t;
    } else {
      hi = t;
    }
    double next = d2 < 0.0 ? t - d1 / d2 : 0.5 * (lo + hi);
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    const double change = std::fabs(next - t);
    t = next;
    if (change <= 1e-6 * std::max(t, 1e-3)) break;
  }
  t = std::clamp(t, kMinBranchLength, kMaxBranchLength);
  tree.set_length(u, v, t);
  return t;
}

double GeneralEngine::smooth(Tree& tree, int max_passes) {
  attach(tree);
  for (int pass = 0; pass < max_passes; ++pass) {
    double worst = 0.0;
    for (const auto& [u, v] : tree.edges()) {
      const double before = tree.length(u, v);
      const double after = optimize_edge(tree, u, v);
      worst = std::max(worst, std::fabs(after - before) / std::max(before, 1e-3));
    }
    if (worst < 1e-4) break;
  }
  return log_likelihood();
}

}  // namespace fdml
