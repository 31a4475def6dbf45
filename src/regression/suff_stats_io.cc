#include "regression/suff_stats_io.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace bellwether::regression {

namespace {

// Bounds on the serialized statistic header. A corrupt arity must not turn
// into a gigabyte triangle allocation, and a corrupt (or overflowed)
// example count must not silently poison degrees-of-freedom arithmetic
// downstream — 2^48 examples is far beyond anything a real accumulation
// reaches.
constexpr int64_t kMaxArity = 4096;
constexpr int64_t kMaxExamples = int64_t{1} << 48;

}  // namespace

void WriteWireDouble(std::ostream& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

Status ReadWireDouble(std::istream& in, double* v) {
  std::string tok;
  if (!(in >> tok)) return Status::IoError("truncated value (double)");
  errno = 0;
  char* end = nullptr;
  *v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0') {
    return Status::IoError("bad double: '" + tok + "'");
  }
  return Status::OK();
}

void WriteSuffStats(std::ostream& out, const RegressionSuffStats& s) {
  const size_t p = s.num_features();
  out << "stats " << p << ' ' << s.num_examples() << ' ';
  WriteWireDouble(out, s.sum_weights());
  out << ' ';
  WriteWireDouble(out, s.ytwy());
  for (double v : s.packed_xtwx()) {
    out << ' ';
    WriteWireDouble(out, v);
  }
  for (size_t j = 0; j < p; ++j) {
    out << ' ';
    WriteWireDouble(out, s.xtwy()[j]);
  }
  out << '\n';
}

Result<RegressionSuffStats> ReadSuffStats(std::istream& in) {
  std::string tag;
  int64_t p = 0;
  int64_t n = 0;
  if (!(in >> tag >> p >> n) || tag != "stats") {
    return Status::IoError("truncated suff-stats header");
  }
  if (p < 0 || p > kMaxArity) {
    return Status::IoError("implausible feature count in suff-stats");
  }
  if (n < 0 || n > kMaxExamples) {
    return Status::IoError("implausible example count in suff-stats");
  }
  double sum_w = 0.0;
  double ytwy = 0.0;
  BW_RETURN_IF_ERROR(ReadWireDouble(in, &sum_w));
  BW_RETURN_IF_ERROR(ReadWireDouble(in, &ytwy));
  const size_t arity = static_cast<size_t>(p);
  std::vector<double> packed(RegressionSuffStats::PackedSize(arity));
  for (double& v : packed) {
    BW_RETURN_IF_ERROR(ReadWireDouble(in, &v));
  }
  std::vector<double> xtwy(arity, 0.0);
  for (size_t j = 0; j < arity; ++j) {
    BW_RETURN_IF_ERROR(ReadWireDouble(in, &xtwy[j]));
  }
  return RegressionSuffStats::FromPacked(arity, std::move(packed),
                                         std::move(xtwy), ytwy, n, sum_w);
}

}  // namespace bellwether::regression
