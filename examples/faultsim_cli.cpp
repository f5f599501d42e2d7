// FaultSim-style command-line reliability simulator (the paper's cited
// methodology [50][52]): pick a scheme, an error rate, and a cache
// geometry; get a FIT/MTTF estimate from functional Monte-Carlo fault
// injection, with the analytical prediction alongside.
//
// Usage:
//   faultsim_cli --scheme=<x|y|z|ecc1..ecc6|cppc|raid6|2dp|hiecc>
//                [--ber=1e-4] [--lines=16384] [--group=128]
//                [--intervals=1000] [--seed=1] [--inner-t=1]
//
// Malformed or out-of-range values are rejected with a diagnostic on
// stderr and exit code 1.
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "baselines/cppc_cache.h"
#include "baselines/ecck_cache.h"
#include "baselines/hiecc_cache.h"
#include "baselines/mc_runner.h"
#include "baselines/raid6_cache.h"
#include "baselines/twodp_cache.h"
#include "raid/geometry.h"
#include "reliability/analytical.h"
#include "reliability/montecarlo.h"

using namespace sudoku;
using namespace sudoku::reliability;

namespace {

struct Args {
  std::string scheme = "z";
  double ber = 1e-4;
  std::uint64_t lines = 1u << 14;
  std::uint32_t group = 128;
  std::uint64_t intervals = 1000;
  std::uint64_t seed = 1;
  int inner_t = 1;
};

constexpr const char* kSchemes = "x|y|z|ecc1..ecc6|cppc|raid6|2dp|hiecc";

bool bad(const std::string& key, const std::string& val, const char* expected) {
  std::fprintf(stderr, "faultsim_cli: invalid --%s=%s (expected %s)\n", key.c_str(),
               val.c_str(), expected);
  return false;
}

// Whole-string unsigned parse: rejects signs, blanks, trailing text and
// overflow, which std::stoull would either accept or throw on.
bool parse_u64(const std::string& val, std::uint64_t& out) {
  if (val.empty() || val[0] < '0' || val[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(val.c_str(), &end, 10);
  return errno == 0 && *end == '\0';
}

bool parse_double(const std::string& val, double& out) {
  if (val.empty()) return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtod(val.c_str(), &end);
  return errno == 0 && *end == '\0' && std::isfinite(out);
}

// ECC-k tolerance from "ecc<k>", or 0 when the scheme is not ecc1..ecc6.
int ecc_k_of(const std::string& scheme) {
  if (scheme.size() != 4 || scheme.rfind("ecc", 0) != 0) return 0;
  const char k = scheme[3];
  return k >= '1' && k <= '6' ? k - '0' : 0;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "faultsim_cli: bad argument: %s\n", a.c_str());
      return false;
    }
    const std::string key = a.substr(2, eq - 2);
    const std::string val = a.substr(eq + 1);
    std::uint64_t n = 0;
    if (key == "scheme") {
      const bool known = val == "x" || val == "y" || val == "z" || val == "cppc" ||
                         val == "raid6" || val == "2dp" || val == "hiecc" ||
                         ecc_k_of(val) != 0;
      if (!known) return bad(key, val, kSchemes);
      args.scheme = val;
    } else if (key == "ber") {
      if (!parse_double(val, args.ber) || args.ber < 0 || args.ber > 1) {
        return bad(key, val, "a probability in [0, 1]");
      }
    } else if (key == "lines") {
      if (!parse_u64(val, args.lines) || args.lines == 0) {
        return bad(key, val, "a positive integer");
      }
    } else if (key == "group") {
      if (!parse_u64(val, n) || n == 0 || n > UINT32_MAX) {
        return bad(key, val, "a positive 32-bit integer");
      }
      args.group = static_cast<std::uint32_t>(n);
    } else if (key == "intervals") {
      if (!parse_u64(val, args.intervals)) return bad(key, val, "an integer >= 0");
    } else if (key == "seed") {
      if (!parse_u64(val, args.seed)) return bad(key, val, "an integer >= 0");
    } else if (key == "inner-t") {
      if (!parse_u64(val, n) || n < 1 || n > 6) return bad(key, val, "1..6");
      args.inner_t = static_cast<int>(n);
    } else {
      std::fprintf(stderr, "faultsim_cli: unknown option: --%s\n", key.c_str());
      return false;
    }
  }
  // Geometry each scheme's constructor would otherwise abort or throw on.
  const RaidGeometry geo{args.lines, args.group};
  const std::string& s = args.scheme;
  if ((s == "x" || s == "y" || s == "2dp" || s == "raid6") && !geo.valid()) {
    std::fprintf(stderr,
                 "faultsim_cli: --scheme=%s needs power-of-two --lines and "
                 "--group with lines >= group\n",
                 s.c_str());
    return false;
  }
  if (s == "z" && !geo.supports_skewed_hash()) {
    std::fprintf(stderr,
                 "faultsim_cli: --scheme=z needs power-of-two --lines and "
                 "--group with lines >= group^2\n");
    return false;
  }
  if (s == "hiecc" && args.lines % 16 != 0) {
    std::fprintf(stderr,
                 "faultsim_cli: --scheme=hiecc needs --lines to be a multiple "
                 "of 16 (one 1 KB region)\n");
    return false;
  }
  return true;
}

void report(const std::string& scheme, double p_fail, std::uint64_t events,
            std::uint64_t intervals, double analytical_p) {
  std::printf("\n  scheme            : %s\n", scheme.c_str());
  std::printf("  failing intervals : %llu / %llu\n",
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(intervals));
  std::printf("  MC P[fail]/20ms   : %.4g\n", p_fail);
  std::printf("  analytical        : %.4g\n", analytical_p);
  if (p_fail > 0) {
    std::printf("  MC FIT            : %.4g\n", p_fail * 1.8e14);
    std::printf("  MC MTTF           : %.4g s\n", 0.02 / p_fail);
  } else {
    std::printf("  MC FIT            : 0 observed (raise --ber or --intervals)\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return 1;

  CacheParams ap;
  ap.num_lines = args.lines;
  ap.group_size = args.group;
  ap.ber = args.ber;
  ap.inner_ecc_t = args.inner_t;

  std::printf("faultsim: %llu lines, group %u, BER %.3g per 20ms interval, %llu intervals",
              static_cast<unsigned long long>(args.lines), args.group, args.ber,
              static_cast<unsigned long long>(args.intervals));

  if (args.scheme == "x" || args.scheme == "y" || args.scheme == "z") {
    McConfig cfg;
    cfg.cache = ap;
    cfg.level = args.scheme == "x"   ? SudokuLevel::kX
                : args.scheme == "y" ? SudokuLevel::kY
                                     : SudokuLevel::kZ;
    cfg.max_intervals = args.intervals;
    cfg.seed = args.seed;
    const auto r = run_montecarlo(cfg);
    FitResult an{};
    if (args.scheme == "x") an = sudoku_x_due(ap);
    if (args.scheme == "y") an = sudoku_y_due(ap);
    if (args.scheme == "z") an = sudoku_z_due(ap);
    report(std::string("SuDoku-") + static_cast<char>(std::toupper(args.scheme[0])),
           r.p_failure_per_interval(), r.failure_intervals, r.intervals,
           an.p_interval());
    std::printf("  repairs           : ecc1=%llu raid4=%llu sdr=%llu hash2=%llu sdc=%llu\n",
                static_cast<unsigned long long>(r.ecc1_corrections),
                static_cast<unsigned long long>(r.raid4_repairs),
                static_cast<unsigned long long>(r.sdr_repairs),
                static_cast<unsigned long long>(r.hash2_invocations),
                static_cast<unsigned long long>(r.sdc_lines));
    return 0;
  }

  baselines::BaselineMcConfig mcfg;
  mcfg.ber = args.ber;
  mcfg.max_intervals = args.intervals;
  mcfg.seed = args.seed;

  if (const int k = ecc_k_of(args.scheme)) {
    baselines::EccKCache cache(args.lines, k);
    const auto r = run_baseline_mc(cache, mcfg);
    report(cache.name(), r.p_failure_per_interval(), r.failure_intervals, r.intervals,
           ecc_k(ap, k).p_interval());
  } else if (args.scheme == "cppc") {
    baselines::CppcCache cache(args.lines);
    const auto r = run_baseline_mc(cache, mcfg);
    report(cache.name(), r.p_failure_per_interval(), r.failure_intervals, r.intervals,
           cppc(ap).p_interval());
  } else if (args.scheme == "raid6") {
    baselines::Raid6Cache cache(args.lines, args.group);
    const auto r = run_baseline_mc(cache, mcfg);
    report(cache.name(), r.p_failure_per_interval(), r.failure_intervals, r.intervals,
           raid6(ap).p_interval());
  } else if (args.scheme == "2dp") {
    baselines::TwoDpCache cache(args.lines, args.group);
    const auto r = run_baseline_mc(cache, mcfg);
    report(cache.name(), r.p_failure_per_interval(), r.failure_intervals, r.intervals,
           twodp(ap).p_interval());
  } else if (args.scheme == "hiecc") {
    baselines::HiEccCache cache(args.lines);
    const auto r = run_baseline_mc(cache, mcfg);
    report(cache.name(), r.p_failure_per_interval(), r.failure_intervals, r.intervals,
           hi_ecc(ap).p_interval());
  }
  return 0;
}
