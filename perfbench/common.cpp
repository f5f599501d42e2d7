#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "codes/crc31.h"

namespace perfbench {

Percentile nearest_rank(const std::vector<double>& sorted, double q) {
  Percentile p;
  p.samples = sorted.size();
  if (sorted.empty() || q <= 0.0 || q > 1.0) return p;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::uint64_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::uint64_t>(rank, 1, sorted.size());
  p.value = sorted[rank - 1];
  p.beyond = sorted.size() - rank;
  p.reportable = p.beyond >= kMinBeyond;
  return p;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return nearest_rank(values, 0.5).value;
}

double best_ops_per_s(const std::vector<const RoundResult*>& rounds) {
  std::vector<double> best;
  for (const RoundResult* r : rounds) {
    const std::vector<double> segments =
        r->segment_s.empty() ? std::vector<double>{r->wall_s} : r->segment_s;
    if (best.empty()) best = segments;
    for (std::size_t k = 0; k < best.size() && k < segments.size(); ++k) {
      best[k] = std::min(best[k], segments[k]);
    }
  }
  double wall = 0.0;
  for (double s : best) wall += s;
  return wall > 0.0 ? static_cast<double>(rounds.front()->ops) / wall : 0.0;
}

double peak_rss_mb() {
  // VmHWM is the peak of this process image alone. ru_maxrss is not: Linux
  // carries the parent's peak across fork+exec, so a runner launched from a
  // larger parent would report the parent's memory.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
#else
  return "unknown";
#endif
}

}  // namespace

sudoku::exp::JsonObject fingerprint() {
  sudoku::exp::JsonObject fp;
  fp.set("nproc", std::thread::hardware_concurrency());
  fp.set("cpu_model", cpu_model());
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  fp.set("pclmul", __builtin_cpu_supports("pclmul") != 0);
  fp.set("avx2", __builtin_cpu_supports("avx2") != 0);
  fp.set("avx512f", __builtin_cpu_supports("avx512f") != 0);
#endif
  fp.set("compiler", std::string(PERFBENCH_CXX_ID) + " " + PERFBENCH_CXX_VERSION);
  fp.set("build_type", PERFBENCH_BUILD_TYPE);
  fp.set("sudoku_obs", PERFBENCH_OBS != 0);
  fp.set("crc31_kernel", sudoku::to_string(sudoku::Crc31::active_kernel()));
  return fp;
}

void keep(std::uint64_t v) {
  static std::atomic<std::uint64_t> sink{0};
  sink.fetch_xor(v, std::memory_order_relaxed);
}

}  // namespace perfbench
