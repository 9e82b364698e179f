/// \file main.cpp
/// mrtpl_perfbench: runs one benchmark workload in this process and
/// prints one JSON object as the last line of stdout. perfbench/run.py
/// builds this program, runs it (one process per run, since peak RSS is
/// process-wide) and turns the object into the benchmark's result line.
///
///   mrtpl_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                   --work-dir DIR [--min-units N] [--trace-out FILE]
///
/// Exit status: 0 when every output check passed, 1 when one failed,
/// 2 on bad arguments.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "util/resource.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void print_map(const char* key, const std::map<std::string, double>& m) {
  std::printf(",\"%s\":{", key);
  bool first = true;
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::printf("}");
}

/// Modules whose self time a traced run reports (0 when not exercised).
constexpr const char* kModules[] = {"benchgen", "global", "grid",    "core",
                                    "eval",     "drc",    "io",      "session",
                                    "store",    "server", "bench"};

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string trace_out;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 == argc) {
      std::fprintf(stderr, "mrtpl_perfbench: '%s' needs a value\n", argv[i]);
      return 2;
    }
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::atof(value.c_str());
    else if (key == "--min-units") opt.min_units = std::atoi(value.c_str());
    else if (key == "--trace") opt.trace = value == "1";
    else if (key == "--work-dir") opt.work_dir = value;
    else if (key == "--trace-out") trace_out = value;
    else {
      std::fprintf(stderr, "mrtpl_perfbench: unknown argument '%s'\n", key.c_str());
      return 2;
    }
  }
  const bool routing = opt.workload == "prod_serial" || opt.workload == "prod_tiled" ||
                       opt.workload == "tpl_dense";
  if ((!routing && opt.workload != "eco_stream") || opt.work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: mrtpl_perfbench --workload prod_serial|prod_tiled|tpl_dense|"
                 "eco_stream --seed N --seconds S --trace 0|1 --work-dir DIR\n");
    return 2;
  }

  perfbench::Tracer tracer(opt.trace);
  perfbench::Result r;
  try {
    r = routing ? perfbench::run_routing(opt, tracer) : perfbench::run_eco(opt, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mrtpl_perfbench: %s\n", e.what());
    return 1;
  }
  // A failed check is at least one failed operation; none fails twice.
  if (!r.problems.empty() && r.failed == 0) r.failed = 1;
  r.failed = std::min(r.failed, r.attempted);
  r.e2e["peak_rss_mb"] = mrtpl::util::peak_rss_mb();
  r.e2e["ok_frac"] = r.attempted > 0
                         ? 1.0 - static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                         : 0.0;
  if (opt.trace) {
    const auto self = tracer.self_time_by_module();
    for (const char* m : kModules) {
      const auto it = self.find(m);
      r.layer[std::string(m) + ".self_s"] = it == self.end() ? 0.0 : it->second;
    }
    if (!trace_out.empty() && !tracer.write_chrome(trace_out))
      r.check(false, "cannot write trace file " + trace_out);
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"attempted\":%lld,"
              "\"failed\":%lld,\"build_type\":\"%s\",\"compiler\":\"%s\",\"problems\":[",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, r.attempted, r.failed, PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER);
  for (std::size_t i = 0; i < r.problems.size(); ++i)
    std::printf("%s\"%s\"", i == 0 ? "" : ",", escape(r.problems[i]).c_str());
  std::printf("]");
  print_map("e2e", r.e2e);
  print_map("e2e_first", r.e2e_first);
  print_map("layer", r.layer);
  std::printf(",\"info\":{");
  for (std::size_t i = 0; i < r.info.size(); ++i)
    std::printf("%s\"%s\":\"%s\"", i == 0 ? "" : ",", r.info[i].first.c_str(),
                escape(r.info[i].second).c_str());
  std::printf("}}\n");
  return r.problems.empty() ? 0 : 1;
}
