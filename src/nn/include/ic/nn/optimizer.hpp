// The optimizer that trains ICNet: Adam over (parameter, gradient) matrix
// pairs.
#pragma once

#include <vector>

#include "ic/graph/matrix.hpp"

namespace ic::nn {

/// Adam (Kingma & Ba) — the optimizer the paper trains with (§IV.B).
class Adam {
 public:
  explicit Adam(double lr = 1e-2, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8, double weight_decay = 0.0)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps),
        weight_decay_(weight_decay) {}

  /// Apply one update using the current gradients. The pairing of
  /// `parameters[i]` with `gradients[i]` must be stable across calls.
  void step(const std::vector<graph::Matrix*>& parameters,
            const std::vector<graph::Matrix*>& gradients);

 private:
  double lr_, beta1_, beta2_, eps_;
  double weight_decay_;  ///< decoupled (AdamW-style) decay
  std::vector<graph::Matrix> m_, v_;
  long t_ = 0;
};

}  // namespace ic::nn
