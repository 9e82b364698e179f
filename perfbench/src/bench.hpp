#pragma once
/// \file bench.hpp
/// Shared pieces of the benchmark driver: the span tracer, the order
/// statistics every metric is reported with, and the result record a
/// workload fills in. Everything here lives outside the router; layers
/// are timed around their public calls, never from inside.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/case_spec.hpp"
#include "core/mrtpl_router.hpp"
#include "db/design.hpp"
#include "global/guide.hpp"

namespace perfbench {

inline double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration<double>(clock::now() - origin).count();
}

/// Spans recorded around calls into the router's modules. A span is
/// named `<module>.<call>`; its parent is the span open when it started.
/// Spans stay in memory and are written out once, after the run. A
/// disabled tracer records nothing, so untraced runs pay one branch per
/// call.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }

   private:
    Tracer* tracer_;
    int index_;
  };

  [[nodiscard]] Scope span(const char* name) {
    if (!enabled_) return Scope(nullptr, -1);
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, now_s(), 0.0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return Scope(this, open_.back());
  }

  /// Self time per module (the name before the first '.'): each span's
  /// duration minus the time its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_time_by_module() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name.substr(0, s.name.find('.'))] += (s.end - s.start) - child[i];
    }
    return out;
  }

  /// Chrome trace-event JSON (one complete event per span).
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                   i == 0 ? "" : ",", s.name.c_str(), s.start * 1e6,
                   (s.end - s.start) * 1e6, i, s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end = now_s();
    open_.pop_back();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 100]).
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

inline std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// SplitMix64: the benchmark's own input stream, independent of the
/// router's generators so a change to them cannot change the edits.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0.
  int below(int bound) { return static_cast<int>(next() % static_cast<std::uint64_t>(bound)); }

 private:
  std::uint64_t state_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int min_units = 0;  ///< measured units at the least; 0: the workload's own
  bool trace = false;
  std::string work_dir;  ///< scratch directory inside the checkout
};

/// What one workload run reports. `e2e` holds end-to-end metrics,
/// `e2e_first` the same times for the run's first set-up and first unit
/// (what a traced run, which does one unit, is compared with), `layer`
/// per-layer metrics (filled only by a traced run), `info` the context
/// printed next to them (hashes, sample counts).
struct Result {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> problems;  ///< failed output checks
  std::map<std::string, double> e2e;
  std::map<std::string, double> e2e_first;
  std::map<std::string, double> layer;
  std::vector<std::pair<std::string, std::string>> info;

  /// Record a failed output check; returns `ok`.
  bool check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
    return ok;
  }
};

/// The router's own counters (`core::RouterStats`) summed over the
/// route calls of a unit, and the `core.*` and `shard.*` per-layer
/// metrics derived from them. Every workload reports them this way.
struct CoreTotals {
  mrtpl::core::RouterStats sum;  ///< scalar counters only
  std::uint64_t relaxations_initial = 0;  ///< relaxations_per_pass[0]
  long long conflicts_initial = 0;        ///< conflicts_per_iter.front()
  long long conflicts_final = 0;          ///< conflicts_per_iter.back()

  void add(const mrtpl::core::RouterStats& s) {
    sum.relaxations += s.relaxations;
    sum.reroute_s += s.reroute_s;
    sum.detect_s += s.detect_s;
    sum.rrr_iterations += s.rrr_iterations;
    sum.speculated += s.speculated;
    sum.respeculated += s.respeculated;
    sum.wasted_relaxations += s.wasted_relaxations;
    if (!s.relaxations_per_pass.empty()) relaxations_initial += s.relaxations_per_pass.front();
    if (!s.conflicts_per_iter.empty()) {
      conflicts_initial += s.conflicts_per_iter.front();
      conflicts_final += s.conflicts_per_iter.back();
    }
  }

  /// `route_s` is the wall time of the route calls the counters cover.
  void report(double route_s, std::map<std::string, double>* layer) const {
    auto& l = *layer;
    const auto relax = static_cast<double>(sum.relaxations);
    l["core.relaxations"] = relax;
    l["core.relaxations_initial"] = static_cast<double>(relaxations_initial);
    l["core.relaxations_rrr"] = static_cast<double>(sum.relaxations - relaxations_initial);
    l["core.ns_per_relaxation"] = relax > 0 ? route_s * 1e9 / relax : 0.0;
    l["core.reroute_s"] = sum.reroute_s;
    l["core.detect_s"] = sum.detect_s;
    l["core.unattributed_s"] = route_s - sum.reroute_s - sum.detect_s;
    l["core.rrr_iterations"] = sum.rrr_iterations;
    l["core.conflicts_initial"] = static_cast<double>(conflicts_initial);
    l["core.rrr_fix_ratio"] =
        conflicts_initial > 0
            ? 1.0 - static_cast<double>(conflicts_final) / static_cast<double>(conflicts_initial)
            : 0.0;
    l["shard.speculated"] = sum.speculated;
    l["shard.respeculated"] = sum.respeculated;
    l["shard.keep_ratio"] =
        sum.speculated > 0
            ? 1.0 - static_cast<double>(sum.respeculated) / sum.speculated
            : 0.0;
    l["shard.wasted_relaxations"] = static_cast<double>(sum.wasted_relaxations);
  }
};

/// A generated case with its global-route guides, made with the `suite`
/// flow's settings (hard_spanning_blockages), and the time of each step.
struct Inputs {
  mrtpl::db::Design design;
  mrtpl::global::GuideSet guides;
  double generate_s = 0.0;
  double global_s = 0.0;
};

std::unique_ptr<Inputs> generate_inputs(const mrtpl::benchgen::CaseSpec& spec,
                                        Tracer& tracer);

Result run_routing(const Options& opt, Tracer& tracer);
Result run_eco(const Options& opt, Tracer& tracer);

}  // namespace perfbench
