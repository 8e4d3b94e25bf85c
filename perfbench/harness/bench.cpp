#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t i = std::max(n >= 11 ? n - 11 : 0, (n - 1) / 2);
  t.value = v[i];
  t.beyond = n - 1 - i;
  t.percentile = 100.0 * static_cast<double>(i + 1) / static_cast<double>(n);
  return t;
}

void Digest::Bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
}

Counts CaptureCounts() {
  Counts out;
  for (const auto& c : mcdft::util::metrics::Capture().counters) {
    out[c.name] = c.value;
  }
  return out;
}

Counts DeltaCounts(const Counts& before, const Counts& after) {
  Counts out;
  for (const auto& [name, value] : after) {
    const std::uint64_t prev = CountOf(before, name);
    if (value > prev) out[name] = value - prev;
  }
  return out;
}

int Tracer::Begin(std::string_view name, int parent, std::uint64_t op) {
  if (!enabled_) return kNoParent;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Record{std::string(name), NowNs(), 0, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int index) {
  const std::uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(index)).end_ns = now;
}

std::vector<double> Tracer::SelfSecondsPerOp(
    std::string_view name, const std::vector<std::uint64_t>& ops) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Record& r : spans_) {
    if (r.parent != kNoParent && r.end_ns != 0) {
      child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
  }
  std::map<std::uint64_t, double> per_op;
  for (std::uint64_t op : ops) per_op[op] = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    if (r.name != name || r.end_ns == 0) continue;
    const std::uint64_t dur = r.end_ns - r.start_ns;
    const std::uint64_t self = dur > child_ns[i] ? dur - child_ns[i] : 0;
    per_op[r.op] += static_cast<double>(self) * 1e-9;
  }
  std::vector<double> out;
  for (std::uint64_t op : ops) out.push_back(per_op[op]);
  return out;
}

void Tracer::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Record& r : spans_) {
    out << "{\"name\":\"" << r.name << "\",\"start_ns\":" << r.start_ns - t0
        << ",\"end_ns\":" << (r.end_ns == 0 ? 0 : r.end_ns - t0)
        << ",\"parent\":" << r.parent << ",\"op\":" << r.op << "}\n";
  }
}

std::size_t Tracer::SpanCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void RunResult::Fail(const std::string& what) {
  correct = false;
  Log("CHECK FAILED: %s", what.c_str());
}

void Log(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace perfbench
