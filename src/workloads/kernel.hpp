#pragma once
// Kernel abstraction: an application written against the instrumentation
// layer so that every sum/multiplication is attributable to named program
// variables and can be selectively approximated (the paper's "automatic code
// instrumentation" of the target application).

#include <span>
#include <string>
#include <vector>

#include "axc/catalog.hpp"
#include "instrument/approx_context.hpp"

namespace axdse::instrument {
class MultiApproxContext;
}

namespace axdse::workloads {

/// A named approximable program variable.
struct VariableInfo {
  std::string name;
};

/// Operation counts attributed to one named pipeline stage. Multi-stage
/// kernels report one entry per stage; the per-stage counts sum to the
/// whole-kernel totals for the same selection.
struct StageOpCounts {
  std::string stage;
  energy::OpCounts counts;
};

/// Interface implemented by every benchmark application.
///
/// A kernel owns its input data (generated deterministically from a seed at
/// construction) and declares (a) the operator set its arithmetic maps to and
/// (b) the list of variables the DSE may select for approximation. Run() must
/// be deterministic and route *all* counted arithmetic through the context.
///
/// Run() must also be const-thread-safe: the dse::Engine executes
/// multi-seed explorations of one kernel instance concurrently, each worker
/// with its own ApproxContext. Keep scratch state inside Run()'s stack
/// frame. The one allowed kind of mutable member state is immutable data
/// built once under std::call_once and only read afterwards (the
/// instrument::ProductMemo planes of the fixed-operand kernels); anything
/// else that changes across runs breaks the contract. All built-in kernels
/// satisfy this.
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// Human-readable benchmark name, e.g. "matmul-10x10". Returned by const
  /// reference: implementations compute it once (constructor) and keep it —
  /// the engine and cache grouping read it per evaluation, so per-call
  /// std::string construction was measurable churn.
  virtual const std::string& Name() const noexcept = 0;

  /// The accuracy-ordered operator set this kernel's arithmetic uses.
  virtual const axc::OperatorSet& Operators() const noexcept = 0;

  /// The approximable variables, indexed 0..NumVariables()-1.
  virtual const std::vector<VariableInfo>& Variables() const noexcept = 0;

  /// Number of approximable variables.
  std::size_t NumVariables() const noexcept { return Variables().size(); }

  /// Executes the kernel under the context's active selection and returns
  /// the outputs (raw integer results widened to double).
  virtual std::vector<double> Run(instrument::ApproxContext& ctx) const = 0;

  /// True when the kernel implements RunLanes(). Built-in kernels do;
  /// user kernels default to the scalar path.
  virtual bool SupportsLanes() const noexcept { return false; }

  /// Executes the kernel once for ALL lanes configured on the context and
  /// returns the outputs lane-major: lane l's Run()-equivalent output
  /// occupies [l * out_size, (l + 1) * out_size). Implementations must
  /// produce, per lane, bit-identical values and op counts to Run() under
  /// the same selection. Default throws std::logic_error (guard with
  /// SupportsLanes()).
  virtual std::vector<double> RunLanes(
      instrument::MultiApproxContext& ctx) const;

  /// End-to-end quality metric: the accuracy degradation of `approx`
  /// relative to `precise` (the all-precise golden outputs), as consumed by
  /// the evaluator's delta_acc. Lower is better; 0 means indistinguishable.
  /// The default is the paper's Mean Absolute Error (Eq. 2); multi-stage
  /// kernels override it with application metrics (PSNR gap, top-error).
  /// Must be deterministic and const-thread-safe like Run().
  virtual double AccuracyError(std::span<const double> precise,
                               std::span<const double> approx) const;

  /// Per-stage operation counts under `selection`. Single-stage kernels
  /// return an empty vector (the default); pipeline kernels replay their
  /// stages and attribute counts so reports can show where the work — and
  /// the approximation — lives. Deterministic and const-thread-safe.
  virtual std::vector<StageOpCounts> StageCounts(
      const instrument::ApproxSelection& selection) const {
    (void)selection;
    return {};
  }

  /// Creates a context bound to this kernel's operator set and variables
  /// (initially all-precise).
  instrument::ApproxContext MakeContext() const {
    return instrument::ApproxContext(Operators(), NumVariables());
  }

  /// Index of the variable with the given name.
  /// Throws std::invalid_argument if absent.
  std::size_t VariableIndex(const std::string& name) const;
};

}  // namespace axdse::workloads
