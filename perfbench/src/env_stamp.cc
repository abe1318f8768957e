#include "env_stamp.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "report.h"

namespace perfbench {
namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf < 0x80000004) return "unknown";
  char brand[49] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    unsigned int regs[4] = {};
    __get_cpuid(0x80000002 + i, &regs[0], &regs[1], &regs[2], &regs[3]);
    std::memcpy(brand + 16 * i, regs, sizeof(regs));
  }
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

}  // namespace

EnvStamp ReadEnvStamp() {
  EnvStamp stamp;
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  stamp.nproc = online > 0 ? static_cast<uint32_t>(online) : 1;
  stamp.cpu_model = CpuModel();
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  stamp.popcnt = __builtin_cpu_supports("popcnt");
  stamp.avx2 = __builtin_cpu_supports("avx2");
  stamp.avx512f = __builtin_cpu_supports("avx512f");
  stamp.avx512_vpopcntdq = __builtin_cpu_supports("avx512vpopcntdq");
#endif
  stamp.build_type = PERFBENCH_BUILD_TYPE;
  stamp.library_flags = PERFBENCH_LIBRARY_FLAGS;
  return stamp;
}

std::string EnvStampJsonFields(const EnvStamp& stamp) {
  auto flag = [](bool on) { return on ? "true" : "false"; };
  return "\"nproc\": " + std::to_string(stamp.nproc) + ", \"cpu_model\": \"" +
         JsonEscape(stamp.cpu_model) + "\", \"popcnt\": " + flag(stamp.popcnt) +
         ", \"avx2\": " + flag(stamp.avx2) +
         ", \"avx512f\": " + flag(stamp.avx512f) +
         ", \"avx512_vpopcntdq\": " + flag(stamp.avx512_vpopcntdq) +
         ", \"build_type\": \"" + JsonEscape(stamp.build_type) +
         "\", \"library_flags\": \"" + JsonEscape(stamp.library_flags) + "\"";
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB.
}

}  // namespace perfbench
