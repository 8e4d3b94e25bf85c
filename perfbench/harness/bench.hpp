// Shared plumbing of the mcdft benchmark harness: run arguments, clocks,
// sample statistics, the in-memory span tracer, output digests and the
// result line.  Each workload lives in its own file and only talks to the
// library through its public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/metrics.hpp"

namespace mcdft::core::server {
struct CampaignJob;
}

namespace perfbench {

/// Command-line arguments of one benchmark run.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";  ///< temp files, traces
};

// --- clocks -------------------------------------------------------------

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(std::uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Process CPU time (all threads), seconds.
double ProcessCpuSeconds();

/// Peak resident set size of the process, MiB.
double PeakRssMb();

/// SplitMix64: derives independent 64-bit values from the workload seed.
std::uint64_t Mix(std::uint64_t x);

// --- statistics ---------------------------------------------------------

/// Median (mean of the two middle values for even counts); 0 when empty.
double Median(std::vector<double> v);

/// The highest percentile that still has at least ten samples beyond it:
/// sorted sample n-11 (0-based), but never below the median sample, so
/// with fewer than 21 samples the median sample is reported.  (Taken
/// literally the rule would report the minimum at n = 11 and the maximum
/// below it, and a run's tail would jump between the two as its op count
/// moves across 11.)
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Tail TailOf(std::vector<double> v);

// --- digests ------------------------------------------------------------

/// FNV-1a over raw bytes; doubles are hashed by bit pattern, so two
/// digests agree only when the values are bit-identical.
class Digest {
 public:
  void Bytes(const void* data, std::size_t n);
  void U64(std::uint64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) { Bytes(&v, sizeof v); }
  std::uint64_t Value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// --- util::metrics counters ----------------------------------------------

/// Counter deltas of one interval, keyed by metric name.
using Counts = std::map<std::string, std::uint64_t>;

/// Counter values now (only counters; gauges and histograms are skipped).
Counts CaptureCounts();

/// after - before, dropping zero entries.
Counts DeltaCounts(const Counts& before, const Counts& after);

/// Sum of entries in `c` whose name is `name` (0 when absent).
inline std::uint64_t CountOf(const Counts& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

// --- span tracer ----------------------------------------------------------

/// In-memory span log: name, start, end, parent span and op id, written
/// out once at the end of the run.  Thread-safe; spans carry their parent
/// explicitly so concurrent client threads can record too.
class Tracer {
 public:
  static constexpr int kNoParent = -1;

  /// Starts a span; returns its index (or kNoParent when disabled).
  int Begin(std::string_view name, int parent, std::uint64_t op);
  void End(int index);

  bool Enabled() const { return enabled_; }
  void SetEnabled(bool on) { enabled_ = on; }

  /// Self time (duration minus the time covered by direct children) of
  /// every span named `name`, summed per op id.  Ops with no such span
  /// contribute 0 when listed in `ops`.
  std::vector<double> SelfSecondsPerOp(std::string_view name,
                                       const std::vector<std::uint64_t>& ops)
      const;

  /// Write one JSON object per span to `path`.
  void WriteJsonl(const std::string& path) const;

  std::size_t SpanCount() const;

 private:
  struct Record {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = kNoParent;
    std::uint64_t op = 0;
  };
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Record> spans_;
};

/// RAII span on a Tracer.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name, int parent = Tracer::kNoParent,
       std::uint64_t op = 0)
      : tracer_(tracer), index_(tracer.Begin(name, parent, op)) {}
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void End() {
    if (index_ != Tracer::kNoParent) tracer_.End(index_);
    index_ = Tracer::kNoParent;
  }
  int Index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

// --- results --------------------------------------------------------------

/// What a workload run hands back to main: the counts behind the result
/// line and its metric values by name (main prints them in the order and
/// with the units of its metric tables).
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  /// Record a failed check: the run is reported as not correct.
  void Fail(const std::string& what);
};

/// Human-readable log line (stdout, before the result line).
void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Per-call costs of the MNA kernels, replayed outside the campaign.
struct KernelCosts {
  double assemble_us = 0.0;  ///< MnaSystem::Assemble
  double refactor_us = 0.0;  ///< SparseLu::Refactor (numeric-only)
  double solve_us = 0.0;     ///< SparseLu::Solve (triangular solves)
  double cached_solve_us = 0.0;  ///< MnaSolveCache::Solve (all of the above)
  std::uint64_t calls = 0;       ///< replayed solve points per pass
  std::uint64_t refactor_fallbacks = 0;
};

/// Replay the kernels over every configured netlist of `jobs` and each
/// job's own grid (AC sweep frequencies, or the transient step system at
/// s = 2/h repeated once per step).  Medians over `passes` passes.
KernelCosts ReplayKernels(
    const std::vector<const mcdft::core::server::CampaignJob*>& jobs,
    int passes);

/// Workload entry points.
RunResult RunFlowAc(const RunArgs& args);
RunResult RunTransientCampaign(const RunArgs& args);
RunResult RunServiceMixed(const RunArgs& args);

}  // namespace perfbench
