// djbench: runs one workload of the end-to-end benchmark and prints its
// result record as one JSON object on the last line of stdout.
//
//   djbench --workload query|serve|churn|scan --seed N --seconds S
//           --trace 0|1 --work-dir DIR [--spans PATH]
//
// perfbench/run.py builds this binary, adds build provenance, and writes
// the result set; see perfbench/README.md.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "util/kernels.h"
#include "workloads.h"

namespace {

unsigned CpuCount() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
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

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: djbench --workload query|serve|churn|scan --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--spans") {
      o.spans_path = value;
    } else {
      return Usage();
    }
  }
  if (o.workload.empty() || o.work_dir.empty() || !(o.seconds > 0)) {
    return Usage();
  }
  o.nproc = CpuCount();

  perfbench::RunReport report;
  if (!perfbench::RunWorkload(o, &report)) return 1;

  std::string json = "{\"workload\": \"" + Escape(o.workload) +
                     "\", \"seed\": " + std::to_string(o.seed) +
                     ", \"seconds\": " + Num(o.seconds) +
                     ", \"trace\": " + (o.trace ? "1" : "0");
  json += ", \"runtime\": {\"kernel_tier\": \"" +
          std::string(deepjoin::kern::TierName(deepjoin::kern::ActiveTier())) +
          "\", \"nproc\": " + std::to_string(o.nproc) + "}";
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, mv] : report.metrics) {
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
            Num(mv.value) + ", \"unit\": \"" + mv.unit + "\"}";
    first = false;
  }
  json += "}, \"phases\": [";
  first = true;
  for (const auto& p : report.phases) {
    json += std::string(first ? "" : ", ") + "{\"name\": \"" + p.name +
            "\", \"attempted\": " + std::to_string(p.attempted) +
            ", \"succeeded\": " + std::to_string(p.succeeded) +
            ", \"refused\": " + std::to_string(p.refused) +
            ", \"expired\": " + std::to_string(p.expired) +
            ", \"failed\": " + std::to_string(p.failed) + "}";
    first = false;
  }
  json += "], \"info\": {";
  first = true;
  for (const auto& [name, v] : report.info) {
    json += (first ? "\"" : ", \"") + name + "\": " + Num(v);
    first = false;
  }
  json += "}, \"checks\": {\"correct\": " +
          std::string(report.checks.ok() ? "true" : "false") +
          ", \"checked\": " + std::to_string(report.checks.checked()) +
          ", \"failed\": " + std::to_string(report.checks.failed()) +
          ", \"messages\": [";
  first = true;
  for (const auto& msg : report.checks.messages()) {
    json += (first ? "\"" : ", \"") + Escape(msg) + "\"";
    first = false;
  }
  json += "]}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
