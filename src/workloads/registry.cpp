#include "workloads/registry.hpp"

#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "workloads/conv2d_kernel.hpp"
#include "workloads/dct_kernel.hpp"
#include "workloads/dot_product_kernel.hpp"
#include "workloads/fir_kernel.hpp"
#include "workloads/iir_kernel.hpp"
#include "workloads/kmeans_kernel.hpp"
#include "workloads/matmul_kernel.hpp"
#include "workloads/pipeline_kernel.hpp"
#include "workloads/sobel_kernel.hpp"

namespace axdse::workloads {

namespace {

[[noreturn]] void ThrowBadValue(const std::string& key,
                                const std::string& value) {
  throw std::invalid_argument("KernelParams: value '" + value +
                              "' for key '" + key + "' does not parse");
}

}  // namespace

std::int64_t KernelParams::GetInt(const std::string& key,
                                  std::int64_t fallback) const {
  const auto it = extra.find(key);
  if (it == extra.end()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0')
    ThrowBadValue(key, it->second);
  return static_cast<std::int64_t>(v);
}

std::size_t KernelParams::GetCount(const std::string& key,
                                  std::size_t fallback) const {
  const std::int64_t v = GetInt(key, static_cast<std::int64_t>(fallback));
  if (v < 0)
    throw std::invalid_argument("KernelParams: value '" + std::to_string(v) +
                                "' for key '" + key + "' must not be negative");
  return static_cast<std::size_t>(v);
}

double KernelParams::GetDouble(const std::string& key, double fallback) const {
  const auto it = extra.find(key);
  if (it == extra.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0')
    ThrowBadValue(key, it->second);
  return v;
}

std::string KernelParams::GetString(const std::string& key,
                                    std::string fallback) const {
  const auto it = extra.find(key);
  return it == extra.end() ? fallback : it->second;
}

void KernelRegistry::Register(const std::string& name, Factory factory) {
  if (name.empty())
    throw std::invalid_argument("KernelRegistry::Register: empty name");
  if (!factory)
    throw std::invalid_argument("KernelRegistry::Register: empty factory for '" +
                                name + "'");
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!factories_.emplace(name, std::move(factory)).second)
    throw std::invalid_argument("KernelRegistry::Register: '" + name +
                                "' is already registered");
}

bool KernelRegistry::Has(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return factories_.count(name) != 0;
}

std::vector<std::string> KernelRegistry::Names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;  // std::map iteration order is already sorted
}

std::unique_ptr<Kernel> KernelRegistry::Create(const std::string& name,
                                               const KernelParams& params) const {
  Factory factory;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = factories_.find(name);
    if (it != factories_.end()) factory = it->second;
  }
  if (!factory) {
    std::string known;
    for (const std::string& n : Names())
      known += known.empty() ? n : ", " + n;
    throw std::invalid_argument("KernelRegistry::Create: unknown kernel '" +
                                name + "' (registered: " + known + ")");
  }
  return factory(params);
}

std::unique_ptr<Kernel> KernelRegistry::Create(const KernelSpec& spec,
                                               std::uint64_t seed) const {
  KernelParams params;
  params.size = spec.size;
  params.seed = seed;
  params.extra = spec.extra;
  return Create(spec.name, params);
}

KernelRegistry& KernelRegistry::Global() {
  static KernelRegistry* registry = [] {
    auto* r = new KernelRegistry();
    RegisterBuiltinKernels(*r);
    return r;
  }();
  return *registry;
}

void RegisterBuiltinKernels(KernelRegistry& registry) {
  registry.Register("matmul", [](const KernelParams& p) {
    const std::size_t n = p.size == 0 ? 10 : p.size;
    const std::string granularity = p.GetString("granularity", "per-matrix");
    if (granularity != "per-matrix" && granularity != "row-col")
      throw std::invalid_argument(
          "matmul: granularity must be per-matrix or row-col, got '" +
          granularity + "'");
    return std::make_unique<MatMulKernel>(
        n,
        granularity == "row-col" ? MatMulGranularity::kRowCol
                                 : MatMulGranularity::kPerMatrix,
        p.seed);
  });

  registry.Register("fir", [](const KernelParams& p) {
    const std::size_t samples = p.size == 0 ? 100 : p.size;
    const std::size_t taps = p.GetCount("taps", 17);
    const double cutoff = p.GetDouble("cutoff", 0.2);
    const std::string granularity = p.GetString("granularity", "per-tap");
    if (granularity != "per-tap" && granularity != "per-array")
      throw std::invalid_argument(
          "fir: granularity must be per-tap or per-array, got '" +
          granularity + "'");
    return std::make_unique<FirKernel>(
        samples, taps, cutoff,
        granularity == "per-array" ? FirGranularity::kPerArray
                                   : FirGranularity::kPerTap,
        p.seed);
  });

  registry.Register("iir", [](const KernelParams& p) {
    const std::size_t samples = p.size == 0 ? 128 : p.size;
    return std::make_unique<IirKernel>(samples, p.GetDouble("cutoff", 0.2),
                                       p.seed);
  });

  registry.Register("conv2d", [](const KernelParams& p) {
    const std::size_t height = p.size == 0 ? 16 : p.size;
    const std::size_t width = p.GetCount("width", height);
    const std::size_t bands = p.GetCount("bands", 1);
    return std::make_unique<Conv2DKernel>(height, width, bands, p.seed);
  });

  registry.Register("dct", [](const KernelParams& p) {
    const std::size_t blocks = p.size == 0 ? 4 : p.size;
    return std::make_unique<DctKernel>(blocks, p.seed);
  });

  registry.Register("dot", [](const KernelParams& p) {
    const std::size_t n = p.size == 0 ? 64 : p.size;
    const std::size_t blocks = p.GetCount("blocks", 4);
    return std::make_unique<DotProductKernel>(n, blocks, p.seed);
  });

  registry.Register("sobel3x3", [](const KernelParams& p) {
    const std::size_t height = p.size == 0 ? 12 : p.size;
    const std::size_t width = p.GetCount("width", height);
    const std::size_t bands = p.GetCount("bands", 1);
    return std::make_unique<SobelKernel>(height, width, bands, p.seed);
  });

  registry.Register("kmeans1d", [](const KernelParams& p) {
    const std::size_t n = p.size == 0 ? 96 : p.size;
    const std::size_t clusters = p.GetCount("clusters", 4);
    return std::make_unique<KMeans1DKernel>(n, clusters, p.seed);
  });

  registry.Register("jpeg-path", MakeJpegPathPipeline);
  registry.Register("edge-path", MakeEdgePathPipeline);
  registry.Register("nn-layer", MakeNnLayerPipeline);
}

}  // namespace axdse::workloads
