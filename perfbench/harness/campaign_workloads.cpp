// The two campaign workloads on cascade6, both closed loops (one op at a
// time, the next op starts when the previous one returns):
//
//   flow-ac-cascade6             one op = the `mcdft optimize` path: an AC
//                                campaign at paper options, then the xi
//                                optimizer and the three report renders
//   campaign-transient-cascade6  one op = a transient campaign over the
//                                catastrophic open/short fault list
//
// Untraced ops call RunCampaign.  The traced run composes the same campaign
// from its public building blocks (BuildCampaignFrame ->
// PrepareCampaignConfig -> FaultSimulator -> AssembleConfigRow) with a span
// around each call, and checks the composition against RunCampaign bit for
// bit.

#include <cmath>
#include <optional>
#include <string>

#include "bench.hpp"
#include "core/campaign.hpp"
#include "core/optimizer.hpp"
#include "core/report.hpp"
#include "core/server/request.hpp"
#include "faults/simulator.hpp"

namespace perfbench {

namespace {

using namespace mcdft;
namespace server = core::server;

/// Campaign worker threads of the one threaded traced op behind the
/// *.par_eff metrics.  The timed ops are serial: on a shared host the cores
/// a process actually gets vary from minute to minute, and a 2-thread op's
/// wall time followed them (0.63 s to 1.40 s per transient op on one 4-vCPU
/// VM within an hour), while a serial op's wall time tracks its CPU time.
constexpr std::size_t kThreads = 2;
/// Set-ups timed for setup_s (the median is reported).
constexpr int kSetupReps = 3;
/// Op id of the threaded traced op.
constexpr std::uint64_t kThreadedOp = 1u << 30;

/// The workload's campaign inputs, built the way `mcdft optimize` /
/// `mcdft analyze` build them (server::BuildCampaignJob mirrors the CLI
/// session): cascade6, paper campaign options, <= 2 followers minus the
/// transparent configuration.
///
/// The Monte-Carlo envelope keeps the paper's fixed seed on purpose.  The
/// envelope seed decides which cells are detected, and with them the size
/// of the covering problem: on cascade6 it ranges from 35 to 2 577 minimal
/// covers (optimizer 5 ms to 0.7 s) across seeds, so a seeded envelope
/// would make each --seed measure a different amount of work.
server::CampaignJob MakeJob(bool transient) {
  server::CampaignRequest request;
  request.circuit = "cascade6";
  request.threads = 1;
  if (transient) request.analysis = "transient";
  return server::BuildCampaignJob(request);
}

/// Bit-pattern digests of the tables an op must reproduce.
struct CampaignDigest {
  std::uint64_t matrix = 0;     ///< detectability matrix
  std::uint64_t omega = 0;      ///< omega-detectability table
  std::uint64_t threshold = 0;  ///< per-config detection thresholds
  std::uint64_t responses = 0;  ///< nominal responses + peak deviations
  std::size_t quarantined = 0;
  bool operator==(const CampaignDigest&) const = default;
};

CampaignDigest DigestOf(const core::CampaignResult& campaign) {
  Digest m, w, t, r;
  for (const core::ConfigResult& row : campaign.PerConfig()) {
    for (const auto& f : row.faults) {
      m.U64(f.detectable ? 1 : 0);
      w.F64(f.omega_detectability);
      r.F64(f.peak_deviation);
      r.F64(f.peak_frequency_hz);
    }
    for (double x : row.threshold) t.F64(x);
    for (const auto& v : row.nominal.values) {
      r.F64(v.real());
      r.F64(v.imag());
    }
  }
  return {m.Value(), w.Value(), t.Value(), r.Value(),
          campaign.QuarantinedCellCount()};
}

/// What the optimizer decided, plus the size of what was rendered.
struct FlowOutcome {
  std::string s_opt;    ///< configuration-count optimum
  std::string tied;     ///< every min-cost candidate
  std::string partial;  ///< partial-DFT opamp set
  std::size_t minimal_covers = 0;
  std::size_t report_bytes = 0;
  bool SameAnswer(const FlowOutcome& o) const {
    return s_opt == o.s_opt && tied == o.tied && partial == o.partial;
  }
};

/// The Sec. 4 half of `mcdft optimize`: fundamental requirement,
/// configuration-count optimum, partial DFT, and the three renders.
FlowOutcome OptimizeAndRender(const core::DftCircuit& circuit,
                              const core::CampaignResult& campaign,
                              Tracer& tracer, int parent, std::uint64_t op) {
  const core::DftOptimizer optimizer(circuit, campaign);
  std::optional<core::FundamentalSolution> fundamental;
  {
    Span s(tracer, "core.optimizer.fundamental", parent, op);
    fundamental.emplace(optimizer.SolveFundamental());
  }
  std::optional<core::SelectionResult> selection;
  {
    Span s(tracer, "core.optimizer.count", parent, op);
    selection.emplace(optimizer.OptimizeConfigurationCount());
  }
  std::optional<core::PartialDftResult> partial;
  {
    Span s(tracer, "core.optimizer.partial", parent, op);
    partial.emplace(optimizer.OptimizePartialDft());
  }
  FlowOutcome out;
  {
    Span s(tracer, "core.report.render", parent, op);
    out.report_bytes = core::RenderFundamental(*fundamental, campaign).size() +
                       core::RenderSelection(*selection, campaign).size() +
                       core::RenderPartialDft(*partial, campaign, circuit).size();
  }
  out.s_opt = core::RowSetName(campaign, selection->selected.rows);
  for (const core::ScoredSet& t : selection->tied) {
    out.tied += core::RowSetName(campaign, t.rows) + ";";
  }
  for (const std::string& name : partial->opamps) out.partial += name + ",";
  out.minimal_covers = fundamental->minimal_covers.size();
  return out;
}

/// util::metrics counter deltas of one traced op, per campaign phase.
struct OpCounts {
  Counts envelope;  ///< PrepareCampaignConfig calls
  Counts simulate;  ///< FaultSimulator calls
  Counts total;     ///< the whole op
};

/// RunCampaign rebuilt from its public building blocks, one span per call.
core::CampaignResult ComposeCampaign(const server::CampaignJob& job,
                                     const core::CampaignOptions& options,
                                     Tracer& tracer, int parent,
                                     std::uint64_t op, OpCounts& counts) {
  core::DftCircuit work = job.circuit.Clone();
  std::optional<core::CampaignFrame> frame;
  {
    Span s(tracer, "core.campaign.frame", parent, op);
    frame.emplace(core::BuildCampaignFrame(work, job.fault_list, options));
  }
  const bool transient = frame->transient.has_value();

  const Counts before_prepare = CaptureCounts();
  std::vector<core::PreparedConfig> prepared;
  prepared.reserve(job.configs.size());
  for (const core::ConfigVector& cv : job.configs) {
    // On AC the Monte-Carlo tolerance envelope is nearly all of
    // PrepareCampaignConfig; transient configs skip the envelope.
    Span s(tracer, transient ? "core.campaign.prepare" : "testability.envelope",
           parent, op);
    prepared.push_back(core::PrepareCampaignConfig(work, *frame, cv, options));
  }
  const Counts before_simulate = CaptureCounts();
  counts.envelope = DeltaCounts(before_prepare, before_simulate);

  const std::size_t fault_count = job.fault_list.size();
  const std::size_t points = frame->sweep.Frequencies().size();
  std::vector<std::vector<spice::FrequencyResponse>> rows;
  rows.reserve(job.configs.size());
  for (const core::PreparedConfig& pc : prepared) {
    Span s(tracer, "faults.simulate", parent, op);
    const faults::FaultSimulator simulator(pc.netlist, frame->sweep,
                                           frame->probe, options.mna);
    if (transient) {
      rows.push_back(simulator.SimulateTransientRange(
          job.fault_list, 0, fault_count, options.threads, *frame->transient));
    } else if (spice::LowRankFaultSolvesEnabled(options.mna)) {
      std::optional<faults::SensitivityScreenSpec> screen;
      if (spice::SensitivityScreenEnabled(options.mna)) {
        screen = core::MakeSensitivityScreenSpec(pc.criteria, points, options);
      }
      rows.push_back(simulator.SimulateRange(job.fault_list, 0, fault_count,
                                             options.threads,
                                             screen ? &*screen : nullptr));
    } else {
      std::vector<spice::FrequencyResponse> row;
      row.push_back(simulator.SimulateNominalResilient());
      for (const faults::Fault& f : job.fault_list) {
        row.push_back(simulator.SimulateFaultResilient(f));
      }
      rows.push_back(std::move(row));
    }
  }
  counts.simulate = DeltaCounts(before_simulate, CaptureCounts());

  std::vector<core::ConfigResult> per_config;
  per_config.reserve(job.configs.size());
  for (std::size_t c = 0; c < job.configs.size(); ++c) {
    Span s(tracer, "testability.analyze", parent, op);
    per_config.push_back(core::AssembleConfigRow(
        job.configs[c], prepared[c].criteria, std::move(rows[c]),
        job.fault_list, 0, fault_count));
  }
  return core::CampaignResult(job.fault_list, std::move(per_config),
                              frame->band);
}

/// Counters whose per-op values must repeat exactly across traced ops at
/// one thread count (the determinism contract makes them pure functions of
/// the inputs).
const std::vector<std::string>& DeterministicCounters() {
  static const std::vector<std::string> names = {
      "campaign.cells.total",
      "faults.screen.borderline",
      "faults.screen.screened_detected",
      "faults.screen.screened_undetected",
      "faults.sim.quarantined",
      "linalg.smw.update",
      "linalg.sparse_lu.full_factor",
      "linalg.sparse_lu.refactor",
      "linalg.sparse_lu.refactor_fallback",
      "spice.mna.solve",
      "testability.envelope.samples",
  };
  return names;
}

Counts Restrict(const Counts& c) {
  Counts out;
  for (const std::string& name : DeterministicCounters()) {
    out[name] = CountOf(c, name);
  }
  return out;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Samples of a closed loop.
struct LoopStats {
  std::vector<double> latencies;  ///< per op, seconds
  double busy_s = 0.0;            ///< sum of latencies
  double cpu_s = 0.0;             ///< process CPU over the loop
};

/// Run `op` back to back until `seconds` have passed (at least once).
/// `op` returns its own latency; checks run outside the timed part.
template <typename Op>
LoopStats ClosedLoop(double seconds, Op&& op) {
  LoopStats stats;
  const std::uint64_t start = NowNs();
  const double cpu0 = ProcessCpuSeconds();
  do {
    const double latency = op();
    stats.latencies.push_back(latency);
    stats.busy_s += latency;
  } while (SecondsSince(start) < seconds);
  stats.cpu_s = ProcessCpuSeconds() - cpu0;
  return stats;
}

RunResult RunCampaignWorkload(const RunArgs& args, bool transient) {
  const bool flow = !transient;
  const char* name = transient ? "campaign-transient-cascade6" : "flow-ac-cascade6";
  RunResult result;

  // Set-up, kSetupReps times (the median is setup_s): build the inputs,
  // then the references from a serial RunCampaign (the determinism
  // contract makes the threaded traced op bit-identical to it too).
  Tracer tracer;  // disabled until the traced phase
  std::vector<double> setup_times;
  std::optional<server::CampaignJob> job;
  std::optional<core::CampaignResult> ref_campaign;
  std::optional<FlowOutcome> ref_flow;
  for (int i = 0; i < kSetupReps; ++i) {
    const std::uint64_t t0 = NowNs();
    job.emplace(MakeJob(transient));
    ref_campaign.emplace(core::RunCampaign(job->circuit, job->fault_list,
                                           job->configs, job->options));
    if (flow) ref_flow = OptimizeAndRender(job->circuit, *ref_campaign, tracer, -1, 0);
    setup_times.push_back(SecondsSince(t0));
  }
  const double setup_s = Median(setup_times);
  const CampaignDigest ref = DigestOf(*ref_campaign);
  std::uint64_t cells_per_op = 0;
  for (const auto& row : ref_campaign->PerConfig()) {
    cells_per_op += row.faults.size() * row.nominal.PointCount();
  }
  Log("%s: seed %llu, %zu configs x %zu faults x %zu points = %llu cells/op; "
      "set-up (inputs + serial reference) %.3f s",
      name, static_cast<unsigned long long>(args.seed), job->configs.size(),
      job->fault_list.size(),
      ref_campaign->PerConfig().front().nominal.PointCount(),
      static_cast<unsigned long long>(cells_per_op), setup_s);
  if (ref.quarantined != 0) result.Fail("reference campaign quarantined cells");
  if (flow) {
    Log("reference: S_opt %s, partial DFT {%s}, %zu minimal covers",
        ref_flow->s_opt.c_str(), ref_flow->partial.c_str(),
        ref_flow->minimal_covers);
  }

  auto check = [&](const core::CampaignResult& campaign,
                   const std::optional<FlowOutcome>& outcome) {
    ++result.attempted;
    const CampaignDigest got = DigestOf(campaign);
    std::string why;
    if (got.quarantined != 0) why = "quarantined cells";
    else if (!(got == ref)) why = "campaign tables differ from the serial reference";
    else if (flow && !outcome->SameAnswer(*ref_flow)) why = "optimizer answer differs";
    if (!why.empty()) {
      ++result.failed;
      result.Fail(std::string(name) + " op " + std::to_string(result.attempted) +
                  ": " + why);
    }
  };

  auto untraced_op = [&] {
    const std::uint64_t start = NowNs();
    const core::CampaignResult campaign = core::RunCampaign(
        job->circuit, job->fault_list, job->configs, job->options);
    std::optional<FlowOutcome> outcome;
    if (flow) outcome = OptimizeAndRender(job->circuit, campaign, tracer, -1, 0);
    const double latency = SecondsSince(start);
    check(campaign, outcome);
    return latency;
  };

  if (!args.trace) {
    const LoopStats loop = ClosedLoop(args.seconds, untraced_op);
    const double ops = static_cast<double>(loop.latencies.size());
    const Tail tail = TailOf(loop.latencies);
    const double p50 = Median(loop.latencies);
    result.Set("setup_s", setup_s);
    result.Set("op_p50_s", p50);
    result.Set("op_tail_s", tail.value);
    result.Set("ops_per_s", ops / loop.busy_s);
    result.Set("cells_per_s", ops * static_cast<double>(cells_per_op) / loop.busy_s);
    result.Set("cpu_s_per_op", loop.cpu_s / ops);
    result.Set("rss_peak_mb", PeakRssMb());
    // No result cache on this path: every op computes, so the cache-tier
    // latencies collapse onto the op latency.
    result.Set("hit_p50_s", p50);
    result.Set("miss_p50_s", p50);
    Log("ops %zu, op_p50 %.4f s, tail p%.1f %.4f s (%zu samples, %zu beyond), "
        "fail_ratio %.4f",
        loop.latencies.size(), p50, tail.percentile, tail.value, tail.samples,
        tail.beyond, Ratio(static_cast<double>(result.failed), ops));
    return result;
  }

  // --- traced run -----------------------------------------------------
  // Half the budget untraced (the overhead baseline), half traced.
  const LoopStats untraced = ClosedLoop(args.seconds / 2, untraced_op);
  const double untraced_p50 = Median(untraced.latencies);

  mcdft::util::metrics::SetEnabled(true);
  tracer.SetEnabled(true);
  std::vector<std::uint64_t> traced_ops;
  std::optional<Counts> first_counts;
  std::vector<OpCounts> op_counts;
  std::size_t minimal_covers = 0, report_bytes = 0;
  auto traced_op = [&](const core::CampaignOptions& options, std::uint64_t op) {
    const std::uint64_t start = NowNs();
    Span root(tracer, "op", Tracer::kNoParent, op);
    const Counts before = CaptureCounts();
    OpCounts counts;
    const core::CampaignResult campaign =
        ComposeCampaign(*job, options, tracer, root.Index(), op, counts);
    std::optional<FlowOutcome> outcome;
    if (flow) {
      outcome = OptimizeAndRender(job->circuit, campaign, tracer, root.Index(), op);
    }
    counts.total = DeltaCounts(before, CaptureCounts());
    root.End();
    const double latency = SecondsSince(start);
    // The reference is RunCampaign's, so this is also the check that the
    // building-block composition reproduces RunCampaign bit for bit.
    check(campaign, outcome);
    if (outcome) {
      minimal_covers = outcome->minimal_covers;
      report_bytes = outcome->report_bytes;
    }
    return std::make_pair(latency, counts);
  };
  std::uint64_t next_op = 1;
  const LoopStats traced = ClosedLoop(args.seconds / 2, [&] {
    const std::uint64_t op = next_op++;
    auto [latency, counts] = traced_op(job->options, op);
    const Counts fixed = Restrict(counts.total);
    if (!first_counts) first_counts = fixed;
    if (fixed != *first_counts) {
      result.Fail("per-op counters differ between traced ops");
    }
    traced_ops.push_back(op);
    op_counts.push_back(std::move(counts));
    return latency;
  });
  const double traced_p50 = Median(traced.latencies);

  // One threaded op for the parallel efficiencies.
  core::CampaignOptions threaded_options = job->options;
  threaded_options.threads = kThreads;
  traced_op(threaded_options, kThreadedOp);
  tracer.SetEnabled(false);
  mcdft::util::metrics::SetEnabled(false);

  const KernelCosts kernels = ReplayKernels({&*job}, 3);

  auto self = [&](const char* span) {
    return Median(tracer.SelfSecondsPerOp(span, traced_ops));
  };
  // Serial layer time / (threads x threaded layer time).
  auto par_eff = [&](const char* span) {
    return Ratio(self(span), static_cast<double>(kThreads) *
                                 tracer.SelfSecondsPerOp(span, {kThreadedOp}).front());
  };
  // Counts repeat exactly across traced ops (checked above): read op 1's.
  const OpCounts& c0 = op_counts.front();
  const double envelope_s = self("testability.envelope");
  const double simulate_s = self("faults.simulate");
  const double cells = static_cast<double>(CountOf(c0.total, "campaign.cells.total"));
  const double screened =
      static_cast<double>(CountOf(c0.simulate, "faults.screen.screened_detected") +
                          CountOf(c0.simulate, "faults.screen.screened_undetected"));
  const double refactors = static_cast<double>(CountOf(c0.total, "linalg.sparse_lu.refactor"));
  const double fallbacks =
      static_cast<double>(CountOf(c0.total, "linalg.sparse_lu.refactor_fallback"));

  result.Set("core.campaign.frame_s", self("core.campaign.frame"));
  result.Set("core.campaign.prepare_s", self("core.campaign.prepare"));
  result.Set("testability.envelope_s", envelope_s);
  result.Set("testability.envelope.samples",
             static_cast<double>(CountOf(c0.envelope, "testability.envelope.samples")));
  result.Set("testability.envelope.par_eff", par_eff("testability.envelope"));
  result.Set("faults.simulate_s", simulate_s);
  result.Set("faults.cells", cells);
  result.Set("faults.screened_ratio", Ratio(screened, cells));
  result.Set("faults.simulate.par_eff", par_eff("faults.simulate"));
  result.Set("faults.sim.quarantined",
             static_cast<double>(CountOf(c0.total, "faults.sim.quarantined")));
  result.Set("testability.analyze_s", self("testability.analyze"));
  result.Set("trace.op_self_s", self("op"));
  result.Set("spice.assemble_us", kernels.assemble_us);
  result.Set("linalg.refactor_us", kernels.refactor_us);
  result.Set("linalg.solve_us", kernels.solve_us);
  result.Set("spice.mna.solves",
             static_cast<double>(CountOf(c0.total, "spice.mna.solve")));
  result.Set("linalg.full_factors",
             static_cast<double>(CountOf(c0.total, "linalg.sparse_lu.full_factor")));
  result.Set("linalg.refactor_fallback_ratio", Ratio(fallbacks, refactors + fallbacks));
  result.Set("linalg.smw.updates",
             static_cast<double>(CountOf(c0.total, "linalg.smw.update")));
  if (flow) {
    result.Set("core.optimizer.fundamental_s", self("core.optimizer.fundamental"));
    result.Set("core.optimizer.count_s", self("core.optimizer.count"));
    result.Set("core.optimizer.partial_s", self("core.optimizer.partial"));
    result.Set("boolcov.minimal_covers", static_cast<double>(minimal_covers));
    result.Set("core.report.render_s", self("core.report.render"));
    result.Set("core.report.bytes", static_cast<double>(report_bytes));
  }
  const double overhead = traced_p50 - untraced_p50;
  result.Set("trace.op_p50_s", traced_p50);
  result.Set("trace.overhead_s", overhead);

  // Accounting: the per-layer median self times against the untraced op
  // time, with the tracing overhead as the tolerance.  A sum of per-layer
  // medians is not exactly the median op, hence the 2 % slack.
  double layer_sum = 0.0;
  Log("layer self times per op (median of %zu traced ops):", traced_ops.size());
  for (const char* span :
       {"core.campaign.frame", "core.campaign.prepare", "testability.envelope",
        "faults.simulate", "testability.analyze", "core.optimizer.fundamental",
        "core.optimizer.count", "core.optimizer.partial", "core.report.render",
        "op"}) {
    const double s = self(span);
    if (s == 0.0) continue;
    layer_sum += s;
    Log("  %-28s %9.4f s  %5.1f %%", span, s, 100.0 * s / traced_p50);
  }
  const double residual = layer_sum - untraced_p50;
  Log("layers sum %.4f s vs untraced op_p50 %.4f s: residual %.4f s, tracing "
      "overhead %.4f s -> %s",
      layer_sum, untraced_p50, residual, overhead,
      std::abs(residual) <= std::abs(overhead) + 0.02 * untraced_p50
          ? "accounted"
          : "NOT accounted");
  Log("kernel replay: %llu points, assemble %.3f us, refactor %.3f us, solve "
      "%.3f us, MnaSolveCache::Solve %.3f us, %llu refactor fallbacks",
      static_cast<unsigned long long>(kernels.calls), kernels.assemble_us,
      kernels.refactor_us, kernels.solve_us, kernels.cached_solve_us,
      static_cast<unsigned long long>(kernels.refactor_fallbacks));
  const std::string trace_path = args.work_dir + "/trace-" + name + ".jsonl";
  tracer.WriteJsonl(trace_path);
  Log("%zu spans written to %s", tracer.SpanCount(), trace_path.c_str());
  return result;
}

}  // namespace

RunResult RunFlowAc(const RunArgs& args) {
  return RunCampaignWorkload(args, /*transient=*/false);
}

RunResult RunTransientCampaign(const RunArgs& args) {
  return RunCampaignWorkload(args, /*transient=*/true);
}

}  // namespace perfbench
