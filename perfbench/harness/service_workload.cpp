// service-mixed: an in-process core::server::Daemon on a Unix socket (2
// workers, campaign threads 1, memory + disk cache tiers in a fresh
// directory) and 2 closed-loop client connections.
//
// One pass starts a fresh daemon on an empty cache and submits a seeded
// shuffle of a fixed pool of 14 keys (7 circuits x 2 epsilon values), each
// key 5 times: the first submit of a key computes, the other 4 are cache
// hits (or single-flight followers when they arrive during the compute),
// so every pass computes exactly 14 campaigns.  An op is one submit.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <malloc.h>
#include <unistd.h>

#include "bench.hpp"
#include "core/cache/result_cache.hpp"
#include "core/run_report.hpp"
#include "core/server/daemon.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"
#include "util/trace.hpp"

namespace perfbench {

namespace {

using namespace mcdft;
namespace server = core::server;
namespace json = util::json;

constexpr const char* kCircuits[] = {"biquad",    "khn",   "ackerberg",
                                     "sallenkey", "inamp", "notch",
                                     "leapfrog"};
constexpr double kEpsilons[] = {0.08, 0.10};
/// Submits of each key per pass (1 compute + 4 hits).
constexpr std::size_t kRepeats = 5;
constexpr std::size_t kClients = 2;
constexpr int kSetupReps = 3;

/// One key of the pool, with its reference output.
struct PoolKey {
  std::string label;
  server::CampaignRequest request;
  std::string line;         ///< the submit line sent over the socket
  std::string hash;         ///< CampaignContentHash (the cache key)
  std::string ref_section;  ///< "campaign" section of a serial reference run
  std::uint64_t cells = 0;  ///< (config, fault, omega) verdicts per compute
  std::optional<server::CampaignJob> job;
};

std::vector<PoolKey> MakePool() {
  std::vector<PoolKey> pool;
  for (const char* circuit : kCircuits) {
    for (double eps : kEpsilons) {
      PoolKey k;
      k.request.circuit = circuit;
      k.request.eps = eps;
      k.request.samples = 16;
      k.request.ppd = 20;
      k.request.threads = 1;
      k.label = std::string(circuit) + "@" + (eps == 0.08 ? "0.08" : "0.10");
      json::Value v = server::RequestToJson(k.request);
      v.Set("op", json::Value::Str("submit"));
      k.line = v.Serialize(0) + "\n";
      pool.push_back(std::move(k));
    }
  }
  return pool;
}

/// The "campaign" section of a run report: the part that depends only on
/// the campaign result (timings and counters differ between runs).
std::string CampaignSection(const std::string& report_json) {
  return json::Parse(report_json).Get("campaign").Serialize(0);
}

/// Serial reference of every key: RunCampaign + the daemon's report.
void ComputeReferences(std::vector<PoolKey>& pool) {
  for (PoolKey& k : pool) {
    k.job.emplace(server::BuildCampaignJob(k.request));
    k.hash = k.job->key;
    core::CampaignRunRecorder recorder;
    const core::CampaignResult campaign = core::RunCampaign(
        k.job->circuit, k.job->fault_list, k.job->configs, k.job->options);
    k.ref_section = recorder.Finish(campaign).Get("campaign").Serialize(0);
    k.cells = 0;
    for (const auto& row : campaign.PerConfig()) {
      k.cells += row.faults.size() * row.nominal.PointCount();
    }
    if (campaign.QuarantinedCellCount() != 0) {
      throw std::runtime_error("reference campaign of " + k.label +
                               " quarantined cells");
    }
  }
}

/// A daemon on `dir`.sock with its disk tier in `dir`/cache.
class Instance {
 public:
  explicit Instance(const std::string& dir) : socket_(dir + ".sock") {
    std::filesystem::create_directories(dir + "/cache");
    util::Listener listener = util::Listener::Unix(socket_);
    if (!listener.Valid()) {
      throw std::runtime_error("cannot listen on " + socket_ + ": " +
                               listener.Error());
    }
    server::DaemonOptions options;
    options.service.workers = 2;
    options.service.cache.disk_dir = dir + "/cache";
    daemon_ = std::make_unique<server::Daemon>(std::move(listener), options);
    daemon_->Start();
  }
  ~Instance() { daemon_->Stop(); }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  const std::string& Socket() const { return socket_; }
  server::CampaignService& Service() { return daemon_->Service(); }

 private:
  std::string socket_;
  std::unique_ptr<server::Daemon> daemon_;
};

/// One NDJSON client connection.
class Client {
 public:
  explicit Client(const std::string& socket) : conn_(util::ConnectUnix(socket)) {
    if (!conn_) throw std::runtime_error("cannot connect to " + socket);
  }
  /// Sends one line and reads the response line; `latency_s` covers the
  /// round trip (not the JSON parse).
  json::Value Call(const std::string& line, double& latency_s) {
    const std::uint64_t t0 = NowNs();
    std::string response;
    if (!conn_->WriteAll(line) || !conn_->ReadLine(response)) {
      throw std::runtime_error("connection failed");
    }
    latency_s = SecondsSince(t0);
    return json::Parse(response);
  }

 private:
  std::unique_ptr<util::Conn> conn_;
};

/// One submit as the client saw it.
struct Submission {
  std::size_t key = 0;
  double latency_s = 0.0;
  bool ok = false;
  std::string error;
  std::string tier;
  std::string hash;
  int exit_code = 0;
  std::uint64_t quarantined = 0;
  std::string report;
};

enum class Transport { kSocket, kInProcess };

/// Submits `order` from kClients closed-loop clients sharing one cursor.
/// Returns the submissions (in sequence order) and the busy wall time.
std::vector<Submission> Drive(Instance& instance, const std::vector<PoolKey>& pool,
                              const std::vector<std::size_t>& order,
                              Transport transport, Tracer& tracer,
                              std::uint64_t pass, double& busy_s) {
  std::vector<Submission> subs(order.size());
  std::atomic<std::size_t> cursor{0};
  auto client_loop = [&] {
    std::optional<Client> client;
    try {
      if (transport == Transport::kSocket) client.emplace(instance.Socket());
    } catch (const std::exception& e) {
      // Every submit this client would have made fails.
      for (std::size_t i; (i = cursor++) < order.size();) {
        subs[i].key = order[i];
        subs[i].error = e.what();
      }
      return;
    }
    for (std::size_t i; (i = cursor++) < order.size();) {
      Submission& s = subs[i];
      s.key = order[i];
      const PoolKey& k = pool[s.key];
      try {
        if (transport == Transport::kSocket) {
          Span span(tracer, "core.server.submit", Tracer::kNoParent, pass);
          const json::Value r = client->Call(k.line, s.latency_s);
          span.End();
          s.ok = r.Get("ok").AsBool();
          if (const json::Value* e = r.Find("error")) s.error = e->AsString();
          if (const json::Value* v = r.Find("exit_code")) {
            s.exit_code = static_cast<int>(v->AsDouble());
          }
          if (s.ok) {
            s.tier = r.Get("cache").AsString();
            s.hash = r.Get("key").AsString();
            s.quarantined =
                static_cast<std::uint64_t>(r.Get("quarantined_cells").AsDouble());
            s.report = r.Get("report").AsString();
          }
        } else {
          Span span(tracer, "core.server.submit.in_process", Tracer::kNoParent,
                    pass);
          const std::uint64_t t0 = NowNs();
          server::SubmitOutcome out = instance.Service().Submit(k.request);
          s.latency_s = SecondsSince(t0);
          span.End();
          s.ok = out.ok;
          s.error = out.error;
          s.exit_code = out.exit_code;
          s.tier = out.cache_tier;
          s.hash = out.key;
          s.quarantined = out.quarantined_cells;
          s.report = std::move(out.report_json);
        }
      } catch (const std::exception& e) {
        s.ok = false;
        s.error = e.what();
      }
    }
  };
  const std::uint64_t start = NowNs();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) clients.emplace_back(client_loop);
  for (std::thread& t : clients) t.join();
  busy_s = SecondsSince(start);
  return subs;
}

/// The seeded submit order of pass `pass`: every key kRepeats times.
std::vector<std::size_t> PassOrder(std::size_t keys, std::uint64_t seed,
                                   std::uint64_t pass) {
  std::vector<std::size_t> order;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    for (std::size_t k = 0; k < keys; ++k) order.push_back(k);
  }
  std::mt19937_64 rng(Mix(seed ^ Mix(pass)));
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

json::Value Stats(Instance& instance) {
  Client client(instance.Socket());
  double latency = 0.0;
  const json::Value r = client.Call("{\"op\":\"stats\"}\n", latency);
  if (!r.Get("ok").AsBool()) throw std::runtime_error("stats op failed");
  return r.Get("stats");
}

double StatOf(const json::Value& stats, const char* group, const char* name) {
  return stats.Get(group).Get(name).AsDouble();
}

/// Checks one pass on a fresh cache: every submit ok with exit code 0,
/// each key computed exactly once with the reference campaign section, and
/// every other submit of a key returning the computed report's bytes.
/// Returns the computed report bytes per key.
std::vector<std::string> CheckPass(const std::vector<Submission>& subs,
                                   const std::vector<PoolKey>& pool,
                                   RunResult& result) {
  std::vector<std::string> computed(pool.size());
  std::vector<int> computes(pool.size(), 0);
  for (const Submission& s : subs) {
    if (s.ok && s.tier == "compute") {
      ++computes[s.key];
      computed[s.key] = s.report;
    }
  }
  for (std::size_t k = 0; k < pool.size(); ++k) {
    if (computes[k] != 1) {
      result.Fail(pool[k].label + " computed " + std::to_string(computes[k]) +
                  " times in one pass");
    } else if (CampaignSection(computed[k]) != pool[k].ref_section) {
      result.Fail(pool[k].label + " report differs from the serial reference");
      computed[k].clear();
    }
  }
  for (const Submission& s : subs) {
    ++result.attempted;
    std::string why;
    if (!s.ok) why = "submit failed: " + s.error;
    else if (s.exit_code != 0) why = "exit code " + std::to_string(s.exit_code);
    else if (s.quarantined != 0) why = "quarantined cells";
    else if (computed[s.key].empty() || s.report != computed[s.key]) {
      why = "report bytes differ from the key's computed report";
    }
    if (!why.empty()) {
      ++result.failed;
      result.Fail(pool[s.key].label + " (" + s.tier + "): " + why);
    }
  }
  return computed;
}

/// Latencies of the submissions served by `tier` ("" = all).
std::vector<double> LatenciesOf(const std::vector<Submission>& subs,
                                const std::string& tier) {
  std::vector<double> out;
  for (const Submission& s : subs) {
    if (tier.empty() || s.tier == tier) out.push_back(s.latency_s);
  }
  return out;
}

/// Samples accumulated over socket passes.
struct PassTotals {
  std::vector<Submission> subs;
  double busy_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t computes = 0;
  std::uint64_t passes = 0;
  double dedup_hits = 0.0, rejected = 0.0, cache_hits = 0.0, requests = 0.0;
  double factor_hits = 0.0, factor_misses = 0.0;
};

class ServiceRun {
 public:
  ServiceRun(const RunArgs& args, RunResult& result)
      : args_(args), result_(result), pool_(MakePool()) {
    base_ = args.work_dir + "/svc-" + std::to_string(::getpid());
  }

  /// Set-up, kSetupReps times (the median is returned): the serial
  /// references of every key, then a daemon on a fresh cache directory
  /// with 2 connected clients.
  double SetUp() {
    std::vector<double> times;
    for (int i = 0; i < kSetupReps; ++i) {
      const std::string dir = NextDir();
      {
        const std::uint64_t t0 = NowNs();
        ComputeReferences(pool_);
        Instance instance(dir);
        std::vector<Client> clients;
        for (std::size_t c = 0; c < kClients; ++c) {
          clients.emplace_back(instance.Socket());
        }
        times.push_back(SecondsSince(t0));
      }
      std::filesystem::remove_all(dir);
    }
    const double setup_s = Median(times);
    Log("service-mixed: seed %llu, %zu keys x %zu submits per pass, %zu "
        "clients; set-up (serial references + daemon start) %.3f s, peak "
        "RSS %.1f MiB",
        static_cast<unsigned long long>(args_.seed), pool_.size(), kRepeats,
        kClients, setup_s, PeakRssMb());
    return setup_s;
  }

  /// Socket passes on fresh daemons until `seconds` have passed.
  PassTotals SocketPasses(double seconds, bool traced) {
    PassTotals totals;
    const std::uint64_t start = NowNs();
    const double cpu0 = ProcessCpuSeconds();
    do {
      const std::string dir = NextDir();
      const Counts counts_before =
          traced ? CaptureCounts() : Counts{};
      {
        Instance instance(dir);
        double busy = 0.0;
        std::vector<Submission> subs =
            Drive(instance, pool_, PassOrder(pool_.size(), args_.seed, pass_),
                  Transport::kSocket, tracer_, pass_, busy);
        ++pass_;
        CheckPass(subs, pool_, result_);
        if (traced) CheckPassCounts(counts_before);
        const json::Value stats = Stats(instance);
        totals.busy_s += busy;
        totals.computes += static_cast<std::uint64_t>(StatOf(stats, "server", "computed"));
        totals.dedup_hits += StatOf(stats, "server", "dedup_hits");
        totals.rejected += StatOf(stats, "server", "rejected");
        totals.cache_hits += StatOf(stats, "server", "cache_hits");
        totals.requests += StatOf(stats, "server", "requests");
        totals.factor_hits += StatOf(stats, "factor_cache", "hits");
        totals.factor_misses += StatOf(stats, "factor_cache", "misses");
        ++totals.passes;
        for (Submission& s : subs) {
          s.report.clear();  // checked; only the latencies are kept
          s.report.shrink_to_fit();
          totals.subs.push_back(std::move(s));
        }
      }
      std::filesystem::remove_all(dir);
      // The torn-down daemon stands for a daemon process that exits: hand
      // its freed heap back, so peak RSS is one daemon's and does not
      // depend on how many passes (thread generations) a run fits in.
      ::malloc_trim(0);
    } while (SecondsSince(start) < seconds);
    totals.cpu_s = ProcessCpuSeconds() - cpu0;
    return totals;
  }

  void EndToEnd(double setup_s) {
    const PassTotals t = SocketPasses(args_.seconds, false);
    const std::vector<double> all = LatenciesOf(t.subs, "");
    const double ops = static_cast<double>(all.size());
    const Tail tail = TailOf(all);
    double cells = 0.0;
    for (const Submission& s : t.subs) {
      if (s.tier == "compute") cells += static_cast<double>(pool_[s.key].cells);
    }
    result_.Set("setup_s", setup_s);
    result_.Set("op_p50_s", Median(all));
    result_.Set("op_tail_s", tail.value);
    result_.Set("ops_per_s", ops / t.busy_s);
    result_.Set("cells_per_s", cells / t.busy_s);
    result_.Set("cpu_s_per_op", t.cpu_s / ops);
    result_.Set("rss_peak_mb", PeakRssMb());
    result_.Set("hit_p50_s", Median(LatenciesOf(t.subs, "memory")));
    result_.Set("miss_p50_s", Median(LatenciesOf(t.subs, "compute")));
    Log("%llu passes, %zu submits (%zu hits, %zu computes, %zu dedup), "
        "tail p%.1f %.4f s (%zu samples, %zu beyond), fail_ratio %.4f",
        static_cast<unsigned long long>(t.passes), all.size(),
        LatenciesOf(t.subs, "memory").size(), LatenciesOf(t.subs, "compute").size(),
        LatenciesOf(t.subs, "dedup").size(), tail.percentile, tail.value,
        tail.samples, tail.beyond,
        static_cast<double>(result_.failed) / ops);
    for (std::size_t k = 0; k < pool_.size(); ++k) {
      std::vector<double> hits, misses;
      for (const Submission& s : t.subs) {
        if (s.key != k) continue;
        if (s.tier == "memory") hits.push_back(s.latency_s);
        if (s.tier == "compute") misses.push_back(s.latency_s);
      }
      Log("  %-16s hit p50 %8.1f us  miss p50 %8.1f ms", pool_[k].label.c_str(),
          Median(hits) * 1e6, Median(misses) * 1e3);
    }
  }

  void PerLayer() {
    const PassTotals untraced = SocketPasses(args_.seconds / 2, false);
    const double untraced_p50 = Median(LatenciesOf(untraced.subs, ""));

    util::metrics::SetEnabled(true);
    tracer_.SetEnabled(true);
    const Counts counts_before = CaptureCounts();
    const auto spans_before = util::trace::Capture();
    const PassTotals traced = SocketPasses(args_.seconds / 2, true);
    const Counts counts = DeltaCounts(counts_before, CaptureCounts());
    const auto spans = util::trace::Delta(spans_before, util::trace::Capture());
    const double traced_p50 = Median(LatenciesOf(traced.subs, ""));
    const double computes = static_cast<double>(traced.computes);
    if (traced.computes != traced.passes * pool_.size()) {
      result_.Fail("computed " + std::to_string(traced.computes) + " in " +
                   std::to_string(traced.passes) + " passes");
    }

    // Campaign layers inside the daemon, from the library's own spans and
    // counters, per computed request.
    auto span_s = [&](const char* name) {
      for (const auto& s : spans) {
        if (s.name == name) return static_cast<double>(s.total_wall_ns) * 1e-9 / computes;
      }
      return 0.0;
    };
    auto per_compute = [&](const char* name) {
      return static_cast<double>(CountOf(counts, name)) / computes;
    };
    const double cells = per_compute("campaign.cells.total");
    const double refactors = per_compute("linalg.sparse_lu.refactor");
    const double fallbacks = per_compute("linalg.sparse_lu.refactor_fallback");
    result_.Set("core.campaign.frame_s", span_s("campaign.resolve_band"));
    result_.Set("testability.envelope_s", span_s("testability.envelope"));
    result_.Set("testability.envelope.samples", per_compute("testability.envelope.samples"));
    result_.Set("faults.simulate_s", span_s("campaign.simulate"));
    result_.Set("faults.cells", cells);
    result_.Set("faults.screened_ratio",
                cells > 0 ? (per_compute("faults.screen.screened_detected") +
                             per_compute("faults.screen.screened_undetected")) / cells
                          : 0.0);
    result_.Set("faults.sim.quarantined", per_compute("faults.sim.quarantined"));
    result_.Set("testability.analyze_s", span_s("campaign.assemble"));
    result_.Set("spice.mna.solves", per_compute("spice.mna.solve"));
    result_.Set("linalg.full_factors", per_compute("linalg.sparse_lu.full_factor"));
    result_.Set("linalg.refactor_fallback_ratio",
                refactors + fallbacks > 0 ? fallbacks / (refactors + fallbacks) : 0.0);
    result_.Set("linalg.smw.updates", per_compute("linalg.smw.update"));

    const double passes = static_cast<double>(traced.passes);
    result_.Set("core.server.computed", computes / passes);
    result_.Set("core.server.dedup_hits", traced.dedup_hits / passes);
    result_.Set("core.server.rejected", traced.rejected / passes);
    result_.Set("core.cache.hit_ratio", traced.cache_hits / traced.requests);
    result_.Set("spice.factor_cache.hit_ratio",
                traced.factor_hits / std::max(1.0, traced.factor_hits + traced.factor_misses));

    InProcess(Median(LatenciesOf(traced.subs, "memory")));

    tracer_.SetEnabled(false);
    util::metrics::SetEnabled(false);

    std::vector<const server::CampaignJob*> jobs;
    for (const PoolKey& k : pool_) jobs.push_back(&*k.job);
    const KernelCosts kernels = ReplayKernels(jobs, 3);
    result_.Set("spice.assemble_us", kernels.assemble_us);
    result_.Set("linalg.refactor_us", kernels.refactor_us);
    result_.Set("linalg.solve_us", kernels.solve_us);
    result_.Set("trace.op_p50_s", traced_p50);
    result_.Set("trace.overhead_s", traced_p50 - untraced_p50);
    Log("traced op_p50 %.6f s vs untraced %.6f s; kernel replay: %llu points, "
        "assemble %.3f us, refactor %.3f us, solve %.3f us, "
        "MnaSolveCache::Solve %.3f us, %llu refactor fallbacks",
        traced_p50, untraced_p50, static_cast<unsigned long long>(kernels.calls),
        kernels.assemble_us, kernels.refactor_us, kernels.solve_us,
        kernels.cached_solve_us,
        static_cast<unsigned long long>(kernels.refactor_fallbacks));
    const std::string trace_path = args_.work_dir + "/trace-service-mixed.jsonl";
    tracer_.WriteJsonl(trace_path);
    Log("%zu spans written to %s", tracer_.SpanCount(), trace_path.c_str());
  }

 private:
  std::string NextDir() { return base_ + "-" + std::to_string(dirs_++); }

  /// Every pass computes the same 14 campaigns, so these counters must
  /// repeat exactly from pass to pass.  (Full factorizations do not: a
  /// SharedFactorCache hit replaces one, and which of two concurrent
  /// campaigns publishes first is timing.)
  void CheckPassCounts(const Counts& before) {
    const Counts delta = DeltaCounts(before, CaptureCounts());
    Counts fixed;
    for (const char* name :
         {"campaign.cells.total", "faults.sim.quarantined", "linalg.smw.update",
          "spice.mna.solve", "testability.envelope.samples"}) {
      fixed[name] = CountOf(delta, name);
    }
    if (!first_pass_counts_) first_pass_counts_ = fixed;
    if (fixed != *first_pass_counts_) {
      std::string diff;
      for (const auto& [name, value] : fixed) {
        if (value != (*first_pass_counts_)[name]) {
          diff += " " + name + " " + std::to_string((*first_pass_counts_)[name]) +
                  " -> " + std::to_string(value);
        }
      }
      result_.Fail("per-pass counters differ between traced passes:" + diff);
    }
  }

  /// In-process submits (no socket) on one cache directory, then two
  /// restarts on the same directory for the disk tier.
  void InProcess(double socket_hit_p50) {
    const std::string dir = NextDir();
    std::vector<std::string> computed;
    std::vector<std::string> hashes(pool_.size());
    {
      Instance instance(dir);
      double busy = 0.0;
      const std::vector<Submission> subs =
          Drive(instance, pool_, PassOrder(pool_.size(), args_.seed, pass_),
                Transport::kInProcess, tracer_, pass_, busy);
      ++pass_;
      computed = CheckPass(subs, pool_, result_);
      std::vector<double> queue_wait;
      for (const Submission& s : subs) {
        hashes[s.key] = s.hash;
        if (s.ok && s.tier == "compute") {
          // The report's own wall time covers the campaign and report
          // build; the rest of the submit is queueing and hand-off.
          const double run_s =
              json::Parse(s.report).Get("timing").Get("wall_s").AsDouble();
          queue_wait.push_back(std::max(0.0, s.latency_s - run_s));
        }
      }
      const double memory_p50 = Median(LatenciesOf(subs, "memory"));
      result_.Set("core.server.submit_s.compute", Median(LatenciesOf(subs, "compute")));
      result_.Set("core.server.submit_s.memory", memory_p50);
      result_.Set("core.server.submit_s.dedup", Median(LatenciesOf(subs, "dedup")));
      result_.Set("core.server.queue_wait_s", Median(queue_wait));
      result_.Set("core.server.protocol_s", socket_hit_p50 - memory_p50);

      std::vector<double> lookups;
      for (int rep = 0; rep < 20; ++rep) {
        for (const std::string& h : hashes) {
          const std::uint64_t t0 = NowNs();
          const bool hit = instance.Service().Cache().Lookup(h).has_value();
          lookups.push_back(SecondsSince(t0) * 1e6);
          if (!hit) result_.Fail("memory-tier lookup missed");
        }
      }
      result_.Set("core.cache.lookup_us", Median(lookups));
    }
    {
      // Restart 1: the first lookup of each key reads its disk record.
      Instance instance(dir);
      std::vector<double> reads;
      for (std::size_t k = 0; k < pool_.size(); ++k) {
        std::string tier;
        const std::uint64_t t0 = NowNs();
        const auto run = instance.Service().Cache().Lookup(hashes[k], &tier);
        reads.push_back(SecondsSince(t0) * 1e6);
        if (!run || tier != "disk" || run->report_json != computed[k]) {
          result_.Fail(pool_[k].label + ": disk record missing or different");
        }
      }
      result_.Set("core.cache.disk_read_us", Median(reads));
    }
    {
      // Restart 2: one submit per key is served from disk.
      Instance instance(dir);
      std::vector<double> submits;
      for (std::size_t k = 0; k < pool_.size(); ++k) {
        ++result_.attempted;
        const std::uint64_t t0 = NowNs();
        const server::SubmitOutcome out = instance.Service().Submit(pool_[k].request);
        submits.push_back(SecondsSince(t0));
        if (!out.ok || out.cache_tier != "disk" || out.report_json != computed[k]) {
          ++result_.failed;
          result_.Fail(pool_[k].label + ": restart submit not served from disk "
                       "with the computed bytes");
        }
      }
      result_.Set("core.server.submit_s.disk", Median(submits));
    }
    std::filesystem::remove_all(dir);

    // Store cost into a fresh memory + disk cache, as the daemon stores.
    const std::string store_dir = NextDir();
    std::filesystem::create_directories(store_dir);
    {
      core::ResultCacheOptions options;
      options.disk_dir = store_dir;
      core::ResultCache cache(options);
      std::vector<double> stores;
      for (std::size_t k = 0; k < pool_.size(); ++k) {
        core::CachedRun run;
        run.report_json = computed[k];
        const std::uint64_t t0 = NowNs();
        cache.Store(hashes[k], run);
        stores.push_back(SecondsSince(t0) * 1e6);
      }
      result_.Set("core.cache.store_us", Median(stores));
    }
    std::filesystem::remove_all(store_dir);
  }

  const RunArgs& args_;
  RunResult& result_;
  std::vector<PoolKey> pool_;
  Tracer tracer_;
  std::string base_;
  std::uint64_t dirs_ = 0;
  std::uint64_t pass_ = 0;
  std::optional<Counts> first_pass_counts_;
};

}  // namespace

RunResult RunServiceMixed(const RunArgs& args) {
  RunResult result;
  ServiceRun run(args, result);
  const double setup_s = run.SetUp();
  if (args.trace) {
    run.PerLayer();
  } else {
    run.EndToEnd(setup_s);
  }
  return result;
}

}  // namespace perfbench
