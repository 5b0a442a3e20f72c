#pragma once
// Name-driven kernel construction — the facade's answer to "kernels are
// data, not code". Every built-in benchmark ("matmul", "fir", "iir",
// "conv2d", "dct", "dot", "sobel3x3", "kmeans1d") is registered as a
// factory keyed by a string name
// and parameterized by a KernelParams value, so CLI flags, config files, and
// ExplorationRequests can all name the workload they want without compiling
// against its concrete class. Custom kernels register the same way (see
// examples/custom_kernel.cpp).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "workloads/kernel.hpp"
#include "workloads/kernel_spec.hpp"

namespace axdse::workloads {

/// Parameters for registry construction of a kernel. `size` is the kernel's
/// primary dimension (matrix edge, sample count, image height, block count);
/// 0 means the per-kernel default. Kernel-specific knobs travel in `extra`
/// as strings, e.g. {"granularity", "row-col"} or {"taps", "33"}.
///
/// Factories must be deterministic: the same (size, seed, extra) always
/// yields a behaviorally identical kernel.
struct KernelParams {
  std::size_t size = 0;
  std::uint64_t seed = 42;
  std::map<std::string, std::string> extra;

  /// Typed lookups into `extra`; the fallback is returned when the key is
  /// absent. Throws std::invalid_argument when a present value fails to
  /// parse (a silent fallback would hide config typos).
  std::int64_t GetInt(const std::string& key, std::int64_t fallback) const;
  /// GetInt for sizes and counts: also throws std::invalid_argument naming
  /// the key when the value is negative.
  std::size_t GetCount(const std::string& key, std::size_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  std::string GetString(const std::string& key, std::string fallback) const;
};

/// Factory registry mapping kernel names to parameterized constructors.
/// Thread-safe: Register/Create may be called concurrently (the Engine's
/// workers create kernels in parallel).
class KernelRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Kernel>(const KernelParams&)>;

  KernelRegistry() = default;
  KernelRegistry(const KernelRegistry&) = delete;
  KernelRegistry& operator=(const KernelRegistry&) = delete;

  /// Registers `factory` under `name`.
  /// Throws std::invalid_argument if the name is empty, already taken, or
  /// the factory is empty.
  void Register(const std::string& name, Factory factory);

  /// True if a factory is registered under `name`.
  bool Has(const std::string& name) const;

  /// All registered names, sorted lexicographically.
  std::vector<std::string> Names() const;

  /// Constructs the kernel registered under `name`.
  /// Throws std::invalid_argument for unknown names (the message lists the
  /// registered ones) and propagates factory/kernel constructor errors.
  std::unique_ptr<Kernel> Create(const std::string& name,
                                 const KernelParams& params = {}) const;

  /// Constructs the kernel a KernelSpec identifies: spec.name looked up in
  /// the registry, spec.size/spec.extra and `seed` forwarded as
  /// KernelParams. The spec is the one typed kernel identity used by
  /// requests, campaigns, and cache grouping.
  std::unique_ptr<Kernel> Create(const KernelSpec& spec,
                                 std::uint64_t seed = 42) const;

  /// The process-wide registry, preloaded with the built-in benchmarks.
  static KernelRegistry& Global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Factory> factories_;
};

/// Registers the built-in benchmark kernels on `registry`:
///   "matmul"  MatMulKernel      size = matrix edge (default 10);
///             extra: granularity=per-matrix|row-col
///   "fir"     FirKernel         size = samples (default 100);
///             extra: taps, cutoff, granularity=per-tap|per-array
///   "iir"     IirKernel         size = samples (default 128); extra: cutoff
///   "conv2d"  Conv2DKernel      size = height (default 16);
///             extra: width, bands
///   "dct"     DctKernel         size = 8x8 blocks (default 4)
///   "dot"     DotProductKernel  size = vector length (default 64);
///             extra: blocks
///   "sobel3x3" SobelKernel      size = height (default 12);
///             extra: width, bands
///   "kmeans1d" KMeans1DKernel   size = points (default 96); extra: clusters
/// and the multi-stage pipelines (see workloads/pipeline_kernel.hpp):
///   "jpeg-path" dct->quantize->idct   size = 8x8 blocks (default 2);
///             extra: step
///   "edge-path" sobel3x3->threshold   size = height (default 12);
///             extra: width, threshold
///   "nn-layer"  conv2d->bias->relu    size = height (default 12);
///             extra: width, channels
void RegisterBuiltinKernels(KernelRegistry& registry);

}  // namespace axdse::workloads
