#include "ic/nn/trainer.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <numeric>

#include "ic/nn/optimizer.hpp"
#include "ic/support/rng.hpp"
#include "ic/support/telemetry.hpp"
#include "ic/support/thread_pool.hpp"
#include "ic/support/timer.hpp"

namespace ic::nn {

namespace {

/// Clip bound on a batch's global gradient norm. Keeps one bad minibatch
/// from knocking the exponential head into its saturated region.
constexpr double kMaxGradNorm = 5.0;

}  // namespace

TrainReport train_gnn(GnnRegressor& model, const std::vector<GraphSample>& train,
                      const TrainOptions& options) {
  IC_ASSERT(!train.empty());
  TrainReport report;
  telemetry::TraceSpan train_span("train_gnn");
  auto& metrics = telemetry::MetricsRegistry::global();
  auto& epoch_hist = metrics.histogram("train.epoch_seconds");
  auto& epoch_counter = metrics.counter("train.epochs");
  // Epoch N/M for the heartbeat; early stopping just ends short of total.
  telemetry::ProgressJob progress("train_gnn", options.max_epochs);
  progress.set_phase("epoch");
  Timer train_timer;
  Adam optimizer(options.learning_rate, 0.9, 0.999, 1e-8, options.weight_decay);
  Rng rng(options.seed);
  const auto params = model.parameters();
  auto batch_grads = model.zero_gradients();
  std::vector<graph::Matrix*> grads;
  for (auto& g : batch_grads) grads.push_back(&g);

  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  double target_mean = 0.0;
  for (const GraphSample& s : train) target_mean += s.target;
  model.warm_start_head(target_mean / static_cast<double>(train.size()));

  double best_loss = std::numeric_limits<double>::infinity();
  std::size_t stale = 0;

  // Minibatch data parallelism over one shared const model: each sample
  // runs forward and backward on its own tape into its own gradient buffer,
  // and the reduction below adds the buffers in sample order. backward()
  // adds each parameter gradient with exactly one `+=` of an independently
  // computed term, so the sum is the same at any jobs value: training is
  // bit-identical whether the samples run in a plain loop or in parallel.
  const std::size_t jobs = support::ThreadPool::effective_jobs(options.jobs);
  std::unique_ptr<support::ThreadPool> pool;
  if (jobs > 1) pool = std::make_unique<support::ThreadPool>(jobs - 1);

  double last_grad_norm = 0.0;
  for (std::size_t epoch = 0; epoch < options.max_epochs; ++epoch) {
    telemetry::TraceSpan epoch_span("train_gnn/epoch");
    Timer epoch_timer;
    rng.shuffle(order);
    double epoch_loss = 0.0;
    for (std::size_t start = 0; start < order.size(); start += options.batch_size) {
      const std::size_t bn = std::min(order.size(), start + options.batch_size) - start;
      std::vector<double> losses(bn);
      std::vector<std::vector<graph::Matrix>> sample_grads(bn);
      const auto run_sample = [&](std::size_t b) {
        const GraphSample& sample = train[order[start + b]];
        Tape tape;
        const double pred = model.forward(*sample.structure, sample.features, tape);
        const double residual = pred - sample.target;
        losses[b] = residual * residual;
        sample_grads[b] = model.zero_gradients();
        // d/dpred of (pred − y)² averaged over the batch.
        model.backward(*sample.structure, tape,
                       2.0 * residual / static_cast<double>(bn), sample_grads[b]);
      };
      if (pool == nullptr) {
        for (std::size_t b = 0; b < bn; ++b) run_sample(b);
      } else {
        pool->parallel_for(0, bn, [&](std::size_t b) { run_sample(b); });
      }
      for (auto& g : batch_grads) g *= 0.0;
      for (std::size_t b = 0; b < bn; ++b) {
        epoch_loss += losses[b];
        for (std::size_t k = 0; k < batch_grads.size(); ++k) {
          batch_grads[k] += sample_grads[b][k];
        }
      }
      double norm2 = 0.0;
      for (const auto* g : grads) {
        const double n = g->frobenius_norm();
        norm2 += n * n;
      }
      last_grad_norm = std::sqrt(norm2);
      if (last_grad_norm > kMaxGradNorm) {
        const double scale = kMaxGradNorm / last_grad_norm;
        for (auto* g : grads) *g *= scale;
      }
      optimizer.step(params, grads);
    }
    epoch_loss /= static_cast<double>(train.size());
    report.epoch_losses.push_back(epoch_loss);
    report.epoch_seconds.push_back(epoch_timer.seconds());
    ++report.epochs_run;

    epoch_counter.add(1);
    epoch_hist.observe(epoch_timer.seconds());
    progress.tick(epoch + 1);
    metrics.gauge("train.loss").set(epoch_loss);
    metrics.gauge("train.grad_norm").set(last_grad_norm);
    ICLOG(debug) << "epoch done" << telemetry::kv("epoch", epoch)
                 << telemetry::kv("mse", epoch_loss)
                 << telemetry::kv("grad_norm", last_grad_norm)
                 << telemetry::kv("seconds", epoch_timer.seconds());
    if (epoch_loss < best_loss * (1.0 - options.tolerance)) {
      best_loss = epoch_loss;
      stale = 0;
    } else if (++stale >= options.patience) {
      break;  // converged
    }
  }
  report.final_train_mse = report.epoch_losses.back();
  report.wall_seconds = train_timer.seconds();
  ICLOG(info) << "train_gnn finished"
              << telemetry::kv("epochs", report.epochs_run)
              << telemetry::kv("final_mse", report.final_train_mse)
              << telemetry::kv("wall_s", report.wall_seconds);
  return report;
}

double evaluate_mse(const GnnRegressor& model,
                    const std::vector<GraphSample>& samples) {
  IC_ASSERT(!samples.empty());
  double acc = 0.0;
  for (const GraphSample& s : samples) {
    const double r = model.predict(*s.structure, s.features) - s.target;
    acc += r * r;
  }
  return acc / static_cast<double>(samples.size());
}

std::vector<double> predict_all(const GnnRegressor& model,
                                const std::vector<GraphSample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const GraphSample& s : samples) {
    out.push_back(model.predict(*s.structure, s.features));
  }
  return out;
}

}  // namespace ic::nn
