#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";  // Scratch files and span dumps go below here.
};

/// Exit codes of a run that printed a result.
inline constexpr int kExitOk = 0;
inline constexpr int kExitWrongAnswers = 2;  // The correctness gate tripped.
inline constexpr int kExitInvalid = 3;       // The load generator fell behind.

/// Sets up, measures and checks one workload; prints a log, the environment
/// stamp and, as the last line, the result JSON. Returns the exit code.
int RunBenchmark(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
