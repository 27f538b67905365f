// Plain-text (de)serialization of trained models.
//
// One on-disk format, "icnet-params v2". It is self-describing: after the
// magic line the header records the estimator variant, feature set,
// convolution mode, Chebyshev order, input width, hidden layer dims, readout,
// and output head, then the parameter count and per-layer dims:
//
//   icnet-params v2
//   variant icnet
//   features all
//   conv propagate
//   cheb_order 3
//   in_features 7
//   hidden 2 16 8
//   readout attention
//   exp_head 1
//   params 10
//   <rows> <cols>
//   <row-major values>
//   ...
//
// save_model writes it and load_model is the one reader: it builds the model
// from the header alone (ic::serve::ModelRegistry and
// RuntimeEstimator::from_file both call it). Any other version line and any
// unknown header key are errors: a file we cannot fully interpret must not
// half-load. Every parameter block must have the shape the header implies,
// so a file whose values disagree with its header fails loudly.
//
// The header is bounded before any model is built from it, so a corrupt or
// hostile file cannot size a large allocation: in_features must equal the
// feature set's width, and the layer count, every layer width and
// cheb_order must lie in [1, kMaxLayers / kMaxWidth / kMaxChebOrder]. The
// conv line must be the variant's convolution (core::convolution_for), so
// every file describes a model an estimator of its variant runs.
#pragma once

#include <memory>
#include <string>

#include "ic/core/estimator.hpp"
#include "ic/nn/regressor.hpp"

namespace ic::core {

/// Bounds on a header (see above).
inline constexpr std::size_t kMaxLayers = 8;
inline constexpr std::size_t kMaxWidth = 256;
inline constexpr std::size_t kMaxChebOrder = 8;

/// Architecture description parsed from a model file header.
struct ModelSpec {
  ModelVariant variant = ModelVariant::ICNet;
  data::FeatureSet features = data::FeatureSet::All;
  nn::GnnConfig config;
  std::size_t param_count = 0;
};

/// Write `model` with its estimator-level metadata.
void save_model(nn::GnnRegressor& model, const std::string& path,
                ModelVariant variant, data::FeatureSet features);

/// Construct a model from a file alone. Throws std::runtime_error for a file
/// that cannot be opened, a header that is not v2, out of bounds or not its
/// variant's convolution, and parameter blocks that disagree with the header.
/// If `spec_out` is non-null it receives the parsed header.
std::unique_ptr<nn::GnnRegressor> load_model(const std::string& path,
                                             ModelSpec* spec_out = nullptr);

// String forms used in the header (and handy for logs).
const char* variant_name(ModelVariant variant);
const char* feature_set_name(data::FeatureSet set);
const char* readout_name(nn::Readout readout);
ModelVariant parse_variant(const std::string& name);
data::FeatureSet parse_feature_set(const std::string& name);
nn::Readout parse_readout(const std::string& name);

}  // namespace ic::core
