// Kernel replay: the per-call cost of MNA assembly, numeric refactorization
// and triangular solves on a workload's own configured netlists and grid.
// Campaign spans cannot separate these (they interleave inside
// FaultSimulator), so they are timed here, one public call at a time.

#include <algorithm>
#include <numbers>
#include <optional>

#include "bench.hpp"
#include "core/campaign.hpp"
#include "core/server/request.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_lu.hpp"
#include "spice/mna.hpp"

namespace perfbench {

namespace {

using namespace mcdft;

/// One configured netlist and the (kind, omega) points it is solved at.
struct ReplayCase {
  spice::Netlist netlist;
  spice::MnaOptions mna;
  spice::AnalysisKind kind = spice::AnalysisKind::kAc;
  std::vector<double> omegas;
};

std::vector<ReplayCase> BuildCases(
    const std::vector<const core::server::CampaignJob*>& jobs) {
  std::vector<ReplayCase> cases;
  for (const core::server::CampaignJob* job : jobs) {
    core::DftCircuit work = job->circuit.Clone();
    const core::CampaignFrame frame =
        core::BuildCampaignFrame(work, job->fault_list, job->options);
    std::vector<double> omegas;
    spice::AnalysisKind kind = spice::AnalysisKind::kAc;
    if (frame.transient) {
      // One trajectory factors the companion system at s = 2/h once and
      // solves it once per step.
      kind = spice::AnalysisKind::kTransient;
      omegas.assign(frame.transient->steps, 2.0 / frame.transient->StepSize());
    } else {
      for (double hz : frame.sweep.Frequencies()) {
        omegas.push_back(2.0 * std::numbers::pi * hz);
      }
    }
    for (const core::ConfigVector& cv : job->configs) {
      core::ScopedConfiguration scoped(work, cv);
      cases.push_back(
          ReplayCase{work.Circuit().Clone(), job->options.mna, kind, omegas});
    }
  }
  return cases;
}

struct PassCosts {
  double assemble_ns = 0, refactor_ns = 0, solve_ns = 0, cached_ns = 0;
  std::uint64_t calls = 0, fallbacks = 0;
};

PassCosts ReplayPass(const std::vector<ReplayCase>& cases) {
  PassCosts pass;
  linalg::TripletMatrix a;
  linalg::Vector rhs;
  for (const ReplayCase& rc : cases) {
    const spice::MnaSystem sys(rc.netlist, rc.mna);

    std::uint64_t t0 = NowNs();
    for (double omega : rc.omegas) sys.Assemble(rc.kind, omega, a, rhs);
    pass.assemble_ns += static_cast<double>(NowNs() - t0);

    // The factor chain of one sweep, as MnaSolveCache runs it: full factor
    // at the first point, numeric-only refactor under its ordering after.
    std::optional<linalg::CsrAssembly> pattern;
    std::optional<linalg::SparseLu> lu;
    for (double omega : rc.omegas) {
      sys.Assemble(rc.kind, omega, a, rhs);
      if (pattern && pattern->Matches(a)) {
        pattern->Update(a);
      } else {
        pattern.emplace(a);
        lu.reset();
      }
      if (lu) {
        t0 = NowNs();
        const bool ok = lu->Refactor(pattern->Matrix());
        pass.refactor_ns += static_cast<double>(NowNs() - t0);
        if (!ok) {
          ++pass.fallbacks;
          lu.reset();
        }
      }
      if (!lu) lu.emplace(pattern->Matrix());
      t0 = NowNs();
      const linalg::Vector x = lu->Solve(rhs);
      pass.solve_ns += static_cast<double>(NowNs() - t0);
      ++pass.calls;
    }

    spice::MnaSolveCache cache;
    t0 = NowNs();
    for (double omega : rc.omegas) cache.Solve(sys, rc.kind, omega);
    pass.cached_ns += static_cast<double>(NowNs() - t0);
  }
  return pass;
}

}  // namespace

KernelCosts ReplayKernels(
    const std::vector<const core::server::CampaignJob*>& jobs, int passes) {
  const std::vector<ReplayCase> cases = BuildCases(jobs);
  std::vector<double> assemble, refactor, solve, cached;
  KernelCosts out;
  for (int p = 0; p < passes; ++p) {
    const PassCosts pass = ReplayPass(cases);
    const double calls = static_cast<double>(std::max<std::uint64_t>(pass.calls, 1));
    assemble.push_back(pass.assemble_ns * 1e-3 / calls);
    // Refactors run at every point but the first of each sweep.
    const double refactors = std::max(1.0, calls - static_cast<double>(cases.size()));
    refactor.push_back(pass.refactor_ns * 1e-3 / refactors);
    solve.push_back(pass.solve_ns * 1e-3 / calls);
    cached.push_back(pass.cached_ns * 1e-3 / calls);
    out.calls = pass.calls;
    out.refactor_fallbacks = pass.fallbacks;
  }
  out.assemble_us = Median(assemble);
  out.refactor_us = Median(refactor);
  out.solve_us = Median(solve);
  out.cached_solve_us = Median(cached);
  return out;
}

}  // namespace perfbench
