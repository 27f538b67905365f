#include "ic/core/validation.hpp"

#include <cmath>
#include <future>

#include "ic/data/dataset.hpp"
#include "ic/data/metrics.hpp"
#include "ic/support/assert.hpp"
#include "ic/support/rng.hpp"
#include "ic/support/telemetry.hpp"
#include "ic/support/thread_pool.hpp"

namespace ic::core {

CrossValidationReport cross_validate(const EstimatorOptions& options,
                                     const data::Dataset& dataset,
                                     std::size_t folds, std::uint64_t seed,
                                     std::size_t jobs) {
  IC_ASSERT(folds >= 2);
  const std::size_t n = dataset.instances.size();
  IC_CHECK(n >= folds, "cross_validate: " << n << " instances for " << folds
                                          << " folds");
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(seed);
  rng.shuffle(order);

  CrossValidationReport report;
  telemetry::TraceSpan cv_span("estimator/cross_validate");
  report.fold_mse.resize(folds);

  // One fold per task. Each fold builds its own train/test copy, trains a
  // fresh estimator, and writes its MSE into its own slot, so execution
  // order cannot affect the report.
  auto run_fold = [&](std::size_t fold) {
    telemetry::TraceSpan fold_span("estimator/cv_fold");
    data::Dataset train_ds, test_ds;
    train_ds.circuit = dataset.circuit;
    test_ds.circuit = dataset.circuit;
    for (std::size_t i = 0; i < n; ++i) {
      auto& target = (i % folds == fold) ? test_ds : train_ds;
      target.instances.push_back(dataset.instances[order[i]]);
    }
    RuntimeEstimator estimator(options);
    estimator.fit(train_ds);
    report.fold_mse[fold] = estimator.evaluate(test_ds);
  };

  const std::size_t fold_jobs =
      std::min(support::ThreadPool::effective_jobs(jobs), folds);
  if (fold_jobs <= 1) {
    for (std::size_t fold = 0; fold < folds; ++fold) run_fold(fold);
  } else {
    support::ThreadPool pool(fold_jobs);
    std::vector<std::future<void>> pending;
    pending.reserve(folds);
    for (std::size_t fold = 0; fold < folds; ++fold) {
      pending.push_back(pool.submit([&run_fold, fold] { run_fold(fold); }));
    }
    for (auto& f : pending) f.get();
  }

  for (double v : report.fold_mse) report.mean_mse += v;
  report.mean_mse /= static_cast<double>(folds);
  double var = 0.0;
  for (double v : report.fold_mse) {
    var += (v - report.mean_mse) * (v - report.mean_mse);
  }
  report.stddev_mse = std::sqrt(var / static_cast<double>(folds));
  return report;
}

EnsembleEstimator::EnsembleEstimator(EstimatorOptions options,
                                     std::size_t members) {
  IC_ASSERT(members >= 1);
  for (std::size_t m = 0; m < members; ++m) {
    EstimatorOptions o = options;
    o.seed = options.seed + 1000 * (m + 1);
    o.train.seed = options.train.seed + 77 * (m + 1);
    members_.emplace_back(o);
  }
}

void EnsembleEstimator::fit(const data::Dataset& dataset) {
  for (auto& member : members_) member.fit(dataset);
  fitted_ = true;
}

EnsembleEstimator::Prediction EnsembleEstimator::predict(
    const std::vector<circuit::GateId>& selection) {
  IC_CHECK(fitted_, "EnsembleEstimator::predict before fit()");
  std::vector<double> preds;
  preds.reserve(members_.size());
  for (auto& member : members_) {
    preds.push_back(member.predict_log_runtime(selection));
  }
  Prediction out;
  for (double p : preds) out.log_runtime += p;
  out.log_runtime /= static_cast<double>(preds.size());
  double var = 0.0;
  for (double p : preds) var += (p - out.log_runtime) * (p - out.log_runtime);
  out.stddev = std::sqrt(var / static_cast<double>(preds.size()));
  out.seconds = data::seconds_of_label(out.log_runtime);
  return out;
}

double EnsembleEstimator::evaluate(const data::Dataset& dataset) {
  IC_CHECK(fitted_, "EnsembleEstimator::evaluate before fit()");
  const auto targets = dataset.log_targets();
  std::vector<double> preds;
  preds.reserve(targets.size());
  for (const auto& inst : dataset.instances) {
    preds.push_back(predict(inst.selection).log_runtime);
  }
  return data::mse(preds, targets);
}

}  // namespace ic::core
