// The repository benchmark binary. perfbench/run.py builds and runs it:
//
//   perfbench --workload <batch_knn|serve_zipf|mixed_rw> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// The last line of stdout is the result JSON; see BENCHMARK.json.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "runner.h"

namespace {

bool ParseUnsigned(const std::string& text, unsigned long long* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return *end == '\0' && text[0] != '-';
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               message);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    unsigned long long number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (!ParseUnsigned(value, &number)) {
      return Usage((flag + " expects a non-negative integer, got '" + value +
                    "'").c_str());
    } else if (flag == "--seed") {
      options.seed = number;
    } else if (flag == "--seconds") {
      if (number == 0) return Usage("--seconds must be at least 1");
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (number > 1) return Usage("--trace expects 0 or 1");
      options.trace = number == 1;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) return Usage("--workload is required");
  return perfbench::RunBenchmark(options);
}
