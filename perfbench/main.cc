// Runs one benchmark workload and prints its figures, one per line, then a
// JSON result as the last line of standard output:
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--work-dir DIR]
//
// Exits 0 when every call succeeded and every output check held, 1 when
// one did not, 2 on a usage error (without a result line).

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--work-dir DIR]\nworkloads:",
               why.c_str());
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(text.c_str(), &end);
  return errno == 0 && end != text.c_str() && *end == '\0' &&
         std::isfinite(*out);
}

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text.c_str(), &end, 10);
  return errno == 0 && !text.empty() && text[0] != '-' && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage("missing value for " + flag);
    }
    double seconds = 0.0;
    uint64_t number = 0;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &number)) {
      config.seed = number;
    } else if (flag == "--seconds" && ParseDouble(value, &seconds) &&
               seconds > 0) {
      config.seconds = seconds;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      config.trace = value == "1";
    } else if (flag == "--work-dir" && !value.empty()) {
      config.work_dir = value;
    } else {
      return Usage("bad argument " + flag + " " + value);
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!known) return Usage("unknown workload '" + config.workload + "'");

  const perfbench::RunResult result = perfbench::RunWorkload(config);
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "perfbench %s: %s\n", config.workload.c_str(),
                 error.c_str());
  }
  for (const perfbench::Line& line : result.lines) {
    std::printf("%s %s = %.6g %s%s%s\n", config.workload.c_str(),
                line.name.c_str(), line.value, line.unit.c_str(),
                line.note.empty() ? "" : "  # ", line.note.c_str());
  }

  const auto& specs = config.trace ? std::data(perfbench::kPerLayerMetrics)
                                   : std::data(perfbench::kEndToEndMetrics);
  const size_t count = config.trace ? std::size(perfbench::kPerLayerMetrics)
                                    : std::size(perfbench::kEndToEndMetrics);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (size_t i = 0; i < count; ++i) {
    const auto it = result.metrics.find(specs[i].name);
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", specs[i].name,
                std::isfinite(value) ? value : 0.0, specs[i].unit);
  }
  std::printf("}}\n");
  return result.correct ? 0 : 1;
}
