// Plain-text (de)serialization of trained models.
//
// Two on-disk formats:
//   * v1 (legacy) — "icnet-params v1 <count>" then bare shape+value blocks.
//     Carries no architecture information, so loading requires a model that
//     is already shaped exactly like the one that was saved.
//   * v2 — self-describing. After the magic line the header records the
//     estimator variant, feature set, convolution mode, Chebyshev order,
//     input width, hidden layer dims, readout, and output head, then the
//     parameter count and per-layer dims:
//
//       icnet-params v2
//       variant icnet
//       features all
//       conv propagate
//       cheb_order 3
//       in_features 7
//       hidden 2 16 8
//       readout attention
//       exp_head 1
//       params 10
//       <rows> <cols>
//       <row-major values>
//       ...
//
//     A v2 file is enough to *construct* the model (ic::serve::ModelRegistry
//     relies on this), not just to fill one in. Unknown header keys are an
//     error: a file we cannot fully interpret must not half-load.
//
// Loading always checks that every shape matches the receiving model, so a
// file trained with a different architecture fails loudly instead of
// silently misloading. load_parameters accepts both versions.
//
// A v2 header is bounded before any model is built from it, so a corrupt or
// hostile file cannot size a large allocation: in_features must equal the
// feature set's width, and the layer count, every layer width and
// cheb_order must lie in [1, kMaxLayers / kMaxWidth / kMaxChebOrder].
#pragma once

#include <memory>
#include <string>

#include "ic/core/estimator.hpp"
#include "ic/nn/regressor.hpp"

namespace ic::core {

/// Bounds on a v2 header (see above).
inline constexpr std::size_t kMaxLayers = 8;
inline constexpr std::size_t kMaxWidth = 256;
inline constexpr std::size_t kMaxChebOrder = 8;

/// Architecture description parsed from a model file header. For v1 files
/// only `version` and `param_count` are meaningful; everything else keeps
/// the historical defaults (ICNet, All features, default GnnConfig).
struct ModelSpec {
  int version = 1;
  ModelVariant variant = ModelVariant::ICNet;
  data::FeatureSet features = data::FeatureSet::All;
  nn::GnnConfig config;  ///< fully populated for v2 files
  std::size_t param_count = 0;
};

/// Parse just the header of a model file (cheap; no parameter values read).
ModelSpec read_model_spec(const std::string& path);

/// Write `model` in v2 format with explicit estimator-level metadata.
void save_model(nn::GnnRegressor& model, const std::string& path,
                ModelVariant variant, data::FeatureSet features);

/// Construct a model from a v2 file alone. Throws std::runtime_error for v1
/// files (they do not describe their own architecture). If `spec_out` is
/// non-null it receives the parsed header.
std::unique_ptr<nn::GnnRegressor> load_model(const std::string& path,
                                             ModelSpec* spec_out = nullptr);

/// Write `model` in v2 format with default metadata (ICNet variant, feature
/// set inferred from the input width). Prefer save_model when the
/// estimator-level options are known.
void save_parameters(nn::GnnRegressor& model, const std::string& path);

/// Fill a pre-shaped model from a v1 or v2 file. Shape (and, for v2,
/// architecture) mismatches throw.
void load_parameters(nn::GnnRegressor& model, const std::string& path);

// String forms used in the v2 header (and handy for logs).
const char* variant_name(ModelVariant variant);
const char* feature_set_name(data::FeatureSet set);
const char* readout_name(nn::Readout readout);
ModelVariant parse_variant(const std::string& name);
data::FeatureSet parse_feature_set(const std::string& name);
nn::Readout parse_readout(const std::string& name);

}  // namespace ic::core
