// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload serve|clear-diurnal|fl-harvest --seed N
//             --seconds S --trace 0|1 [--trace-out PATH] [--commit ID]
//
// Prints a run header, one line per metric with its unit and sample count,
// and as the LAST line one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics for --trace 0, the per-layer metrics for --trace 1.
// A correctness gate that fails prints no numbers and exits 1; bad usage
// exits 2.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using perfbench::MetricDef;
using perfbench::RunOptions;
using perfbench::WorkloadResult;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload serve|clear-diurnal|fl-harvest "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH] "
               "[--commit ID]\n";
  return 2;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string commit = "unknown";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const auto eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return usage("missing value for " + flag);
    }
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0.0 && options.seconds <= 600.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  WorkloadResult (*run)(const RunOptions&) = nullptr;
  if (options.workload == "serve") {
    run = perfbench::run_serve;
  } else if (options.workload == "clear-diurnal") {
    run = perfbench::run_clear_diurnal;
  } else if (options.workload == "fl-harvest") {
    run = perfbench::run_fl_harvest;
  } else {
    return usage("unknown workload '" + options.workload + "'");
  }

  bool release = false;
  std::cout << "header " << perfbench::run_header_json(options, commit, release)
            << "\n";
  if (!release) {
    std::cout << "warning: not a Release build; timings are not comparable\n";
  }
  std::cout.flush();

  WorkloadResult result;
  try {
    result = run(options);
  } catch (const perfbench::GateFailure& failure) {
    std::cerr << "perfbench: CORRECTNESS GATE FAILED: " << failure.what << "\n";
    return 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << options.workload
              << " threw: " << error.what() << "\n";
    return 1;
  }

  // The printed set is exactly the published one. A layer a workload does
  // not call reports 0 (no calls from the benchmark into it).
  const std::vector<MetricDef>& defs = options.trace
                                           ? perfbench::per_layer_metrics()
                                           : perfbench::end_to_end_metrics();
  for (const MetricDef& def : defs) {
    auto it = result.metrics.find(def.name);
    if (it == result.metrics.end()) {
      if (!options.trace) {
        std::cerr << "perfbench: end-to-end metric " << def.name
                  << " was not measured\n";
        return 1;
      }
      result.put(def.name, 0.0, def.unit, 0, "not exercised by this workload");
      it = result.metrics.find(def.name);
    }
    if (it->second.unit != def.unit || !std::isfinite(it->second.value) ||
        (!options.trace && !(it->second.value > 0.0))) {
      std::cerr << "perfbench: metric " << def.name << " = " << it->second.value
                << " " << it->second.unit << " is invalid\n";
      return 1;
    }
  }
  // Published metrics print as "metric" lines; whatever else the workload
  // measured (the other mode's set) prints as "info" lines, outside the
  // result object.
  char buffer[64];
  const auto print = [&](const char* tag, const std::string& name,
                         const perfbench::MetricValue& m) {
    std::snprintf(buffer, sizeof(buffer), "%.6g", m.value);
    std::cout << tag << " " << name << " = " << buffer << " " << m.unit;
    if (m.samples != 0) std::cout << " (n=" << m.samples << ")";
    if (!m.note.empty()) std::cout << " [" << m.note << "]";
    std::cout << "\n";
  };
  for (const MetricDef& def : defs) {
    print("metric", def.name, result.metrics.at(def.name));
  }
  for (const auto& [name, m] : result.metrics) {
    const bool published =
        std::any_of(defs.begin(), defs.end(),
                    [&](const MetricDef& def) { return name == def.name; });
    if (!published) print("info", name, m);
  }
  std::cout << "ops attempted=" << result.attempted
            << " failed=" << result.failed << "\n";
  std::cout << "digest " << options.workload << " seed=" << options.seed << " "
            << result.digest << "\n";

  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : defs) {
    const perfbench::MetricValue& m = result.metrics.at(def.name);
    std::snprintf(buffer, sizeof(buffer), "%.17g", m.value);
    json += std::string(first ? "" : ", ") + "\"" + def.name +
            "\": {\"value\": " + buffer + ", \"unit\": \"" +
            json_escape(m.unit) + "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
