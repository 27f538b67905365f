#include "ic/core/model_io.hpp"

#include <fstream>
#include <iomanip>

#include "ic/data/features.hpp"
#include "ic/support/assert.hpp"

namespace ic::core {

const char* variant_name(ModelVariant variant) {
  switch (variant) {
    case ModelVariant::ICNet: return "icnet";
    case ModelVariant::Gcn: return "gcn";
    case ModelVariant::ChebNet: return "chebnet";
    case ModelVariant::Sage: return "sage";
  }
  IC_ASSERT_MSG(false, "unhandled ModelVariant");
  return "icnet";
}

const char* feature_set_name(data::FeatureSet set) {
  return set == data::FeatureSet::Location ? "location" : "all";
}

const char* readout_name(nn::Readout readout) {
  switch (readout) {
    case nn::Readout::Sum: return "sum";
    case nn::Readout::Mean: return "mean";
    case nn::Readout::Attention: return "attention";
  }
  IC_ASSERT_MSG(false, "unhandled Readout");
  return "attention";
}

ModelVariant parse_variant(const std::string& name) {
  if (name == "icnet") return ModelVariant::ICNet;
  if (name == "gcn") return ModelVariant::Gcn;
  if (name == "chebnet") return ModelVariant::ChebNet;
  if (name == "sage") return ModelVariant::Sage;
  ic::input_error("unknown model variant '" + name + "'");
}

data::FeatureSet parse_feature_set(const std::string& name) {
  if (name == "location") return data::FeatureSet::Location;
  if (name == "all") return data::FeatureSet::All;
  ic::input_error("unknown feature set '" + name + "'");
}

nn::Readout parse_readout(const std::string& name) {
  if (name == "sum") return nn::Readout::Sum;
  if (name == "mean") return nn::Readout::Mean;
  if (name == "attention") return nn::Readout::Attention;
  ic::input_error("unknown readout '" + name + "'");
}

namespace {

const char* conv_name(nn::ConvMode mode) {
  return mode == nn::ConvMode::Chebyshev ? "chebyshev" : "propagate";
}

nn::ConvMode parse_conv(const std::string& name, const std::string& path) {
  if (name == "propagate") return nn::ConvMode::Propagate;
  if (name == "chebyshev") return nn::ConvMode::Chebyshev;
  ic::input_error("unknown conv mode '" + name + "' in '" + path + "'");
}

void write_header(std::ostream& out, nn::GnnRegressor& model,
                  ModelVariant variant, data::FeatureSet features) {
  const nn::GnnConfig& cfg = model.config();
  out << "icnet-params v2\n";
  out << "variant " << variant_name(variant) << '\n';
  out << "features " << feature_set_name(features) << '\n';
  out << "conv " << conv_name(cfg.conv_mode) << '\n';
  out << "cheb_order " << cfg.cheb_order << '\n';
  out << "in_features " << cfg.in_features << '\n';
  out << "hidden " << cfg.hidden.size();
  for (std::size_t d : cfg.hidden) out << ' ' << d;
  out << '\n';
  out << "readout " << readout_name(cfg.readout) << '\n';
  out << "exp_head " << (cfg.exp_head ? 1 : 0) << '\n';
  out << "params " << model.parameters().size() << '\n';
}

void write_values(std::ostream& out, nn::GnnRegressor& model) {
  out << std::setprecision(17);
  for (const graph::Matrix* p : model.parameters()) {
    out << p->rows() << ' ' << p->cols() << '\n';
    for (std::size_t r = 0; r < p->rows(); ++r) {
      for (std::size_t c = 0; c < p->cols(); ++c) {
        out << (*p)(r, c) << (c + 1 == p->cols() ? '\n' : ' ');
      }
    }
  }
}

/// The header bounds (model_io.hpp) and the variant's convolution, checked
/// before a model is built.
void check_bounds(const ModelSpec& spec, const std::string& path) {
  const nn::GnnConfig& cfg = spec.config;
  const std::size_t width = data::feature_width(spec.features);
  IC_CHECK(cfg.in_features == width,
           "'" << path << "' has in_features " << cfg.in_features
               << " but feature set '" << feature_set_name(spec.features)
               << "' is " << width << " columns");
  IC_CHECK(cfg.cheb_order >= 1 && cfg.cheb_order <= kMaxChebOrder,
           "'" << path << "' has cheb_order " << cfg.cheb_order
               << "; it must be 1.." << kMaxChebOrder);
  for (const std::size_t h : cfg.hidden) {
    IC_CHECK(h >= 1 && h <= kMaxWidth, "'" << path << "' has a layer of width "
                                           << h << "; widths must be 1.."
                                           << kMaxWidth);
  }
  IC_CHECK(convolution_for(spec.variant, cfg.cheb_order) ==
               (Convolution{cfg.conv_mode, cfg.cheb_order}),
           "'" << path << "' pairs variant '" << variant_name(spec.variant)
               << "' with conv " << conv_name(cfg.conv_mode) << " of order "
               << cfg.cheb_order);
}

/// Parse the header of an already-open stream. On return the stream is
/// positioned at the first parameter block.
ModelSpec read_header(std::istream& in, const std::string& path) {
  ModelSpec spec;
  std::string magic, version;
  in >> magic >> version;
  IC_CHECK(in.good() && magic == "icnet-params",
           "'" << path << "' is not an icnet parameter file");
  IC_CHECK(version == "v2", "unsupported parameter-file version '"
                                << version << "' in '" << path << "'");
  std::string key;
  while (in >> key) {
    if (key == "params") {
      in >> spec.param_count;
      IC_CHECK(!in.fail(), "truncated v2 header in '" << path << "'");
      check_bounds(spec, path);
      return spec;
    }
    if (key == "variant") {
      std::string v;
      in >> v;
      spec.variant = parse_variant(v);
    } else if (key == "features") {
      std::string v;
      in >> v;
      spec.features = parse_feature_set(v);
    } else if (key == "conv") {
      std::string v;
      in >> v;
      spec.config.conv_mode = parse_conv(v, path);
    } else if (key == "cheb_order") {
      in >> spec.config.cheb_order;
    } else if (key == "in_features") {
      in >> spec.config.in_features;
    } else if (key == "hidden") {
      std::size_t count = 0;
      in >> count;
      IC_CHECK(!in.fail() && count >= 1 && count <= kMaxLayers,
               "bad hidden-layer count in '" << path << "'");
      spec.config.hidden.resize(count);
      for (std::size_t& d : spec.config.hidden) in >> d;
    } else if (key == "readout") {
      std::string v;
      in >> v;
      spec.config.readout = parse_readout(v);
    } else if (key == "exp_head") {
      int v = 0;
      in >> v;
      spec.config.exp_head = v != 0;
    } else {
      ic::input_error("unknown header key '" + key + "' in '" + path + "'");
    }
    IC_CHECK(!in.fail(), "truncated v2 header in '" << path << "'");
  }
  ic::input_error("v2 header in '" + path + "' ends before the params line");
}

void read_values(std::istream& in, nn::GnnRegressor& model,
                 const std::string& path, std::size_t count) {
  auto params = model.parameters();
  IC_CHECK(count == params.size(), "parameter count mismatch: file has "
                                       << count << ", the header implies "
                                       << params.size());
  for (graph::Matrix* p : params) {
    std::size_t rows = 0, cols = 0;
    in >> rows >> cols;
    IC_CHECK(!in.fail() && rows == p->rows() && cols == p->cols(),
             "parameter shape mismatch in '" << path << "': file block is "
                 << rows << "x" << cols << ", the header implies "
                 << p->rows() << "x" << p->cols());
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) in >> (*p)(r, c);
    }
  }
  IC_CHECK(!in.fail(), "truncated parameter file '" << path << "'");
}

}  // namespace

void save_model(nn::GnnRegressor& model, const std::string& path,
                ModelVariant variant, data::FeatureSet features) {
  IC_CHECK(data::feature_width(features) == model.config().in_features,
           "feature set '" << feature_set_name(features) << "' is "
               << data::feature_width(features)
               << " columns but the model consumes "
               << model.config().in_features);
  std::ofstream out(path);
  IC_CHECK(out.good(), "cannot open '" << path << "' for writing");
  write_header(out, model, variant, features);
  write_values(out, model);
  IC_CHECK(out.good(), "write to '" << path << "' failed");
}

std::unique_ptr<nn::GnnRegressor> load_model(const std::string& path,
                                             ModelSpec* spec_out) {
  std::ifstream in(path);
  IC_CHECK(in.good(), "cannot open '" << path << "'");
  const ModelSpec spec = read_header(in, path);
  auto model = std::make_unique<nn::GnnRegressor>(spec.config);
  read_values(in, *model, path, spec.param_count);
  if (spec_out != nullptr) *spec_out = spec;
  return model;
}

}  // namespace ic::core
