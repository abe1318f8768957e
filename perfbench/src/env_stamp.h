#ifndef PERFBENCH_ENV_STAMP_H_
#define PERFBENCH_ENV_STAMP_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// The environment every result is stamped with, so numbers from different
/// machines or builds are never compared by accident. Read from the CPU
/// (cpuid) and the process, not from files.
struct EnvStamp {
  uint32_t nproc = 0;
  std::string cpu_model;
  bool popcnt = false;
  bool avx2 = false;
  bool avx512f = false;
  bool avx512_vpopcntdq = false;
  std::string build_type;     // CMAKE_BUILD_TYPE of the sg_* libraries.
  std::string library_flags;  // Their compile flags.
};

EnvStamp ReadEnvStamp();

/// The stamp's fields as JSON object members (no surrounding braces).
std::string EnvStampJsonFields(const EnvStamp& stamp);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_ENV_STAMP_H_
