// perfbench: the MPROS pipeline cost ledger.
//
//   perfbench --workload voyage|pdme_ingest|fleet_shore --seed N
//             --seconds S --trace 0|1 [--smoke] [--run-dir DIR]
//
// Prints check failures, the per-round counts (identical for one seed, so
// two runs can be diffed), every metric by name and unit, and as its last
// line one JSON object: end-to-end metrics untraced, per-layer metrics
// traced. Exits 1 when an output check failed. perfbench/run.py builds this
// binary and is the documented entry point.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "voyage|pdme_ingest|fleet_shore --seed N --seconds S "
               "--trace 0|1 [--smoke] [--run-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 0);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      opt.trace = value() != "0";
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--run-dir") {
      opt.run_dir = value();
    } else {
      usage("unknown argument '" + arg + "'");
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

/// Shortest text that reads back as the same double: all its digits, none
/// invented.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " +
         number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  return s + "}";
}

void print_metric(const char* kind, const Metric& m) {
  std::printf("%s %s %s %s%s%s\n", kind, m.name.c_str(),
              number(m.value).c_str(), m.unit.c_str(), m.note.empty() ? "" : "  # ",
              m.note.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  std::filesystem::create_directories(opt.run_dir);

  Result result;
  if (opt.workload == "voyage") {
    result = run_voyage(opt);
  } else if (opt.workload == "pdme_ingest") {
    result = run_pdme_ingest(opt);
  } else if (opt.workload == "fleet_shore") {
    result = run_fleet_shore(opt);
  } else {
    usage("unknown workload '" + opt.workload + "'");
  }

  std::printf("workload %s seed %llu seconds %s trace %d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              number(opt.seconds).c_str(), opt.trace ? 1 : 0,
              opt.smoke ? " smoke" : "");
  std::printf("stamp hardware_concurrency %u\n",
              std::thread::hardware_concurrency());
  for (const std::string& f : result.failures) {
    std::printf("check FAILED %s\n", f.c_str());
  }
  for (const auto& [name, value] : result.counts) {
    std::printf("count %s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  const double failed_ratio =
      result.attempted == 0 ? 0.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  print_metric("metric", {"failed_ratio", failed_ratio, "ratio",
                          std::to_string(result.failed) + " of " +
                              std::to_string(result.attempted)});
  for (const Metric& m : result.end_to_end) print_metric("metric", m);
  for (const Metric& m : result.extra) print_metric("metric", m);
  for (const Metric& m : result.layers) print_metric("layer", m);

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      result.failures.empty() ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(1, result.attempted)),
      static_cast<unsigned long long>(result.failed),
      json_metrics(opt.trace ? result.layers : result.end_to_end).c_str());
  return result.failures.empty() ? 0 : 1;
}
