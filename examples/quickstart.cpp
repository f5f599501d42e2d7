// Quickstart: the SuDoku public API in ~60 lines.
//
//   1. Build a SuDoku-Z controller over a small STTRAM array.
//   2. Write data through the host interface (PLTs update automatically).
//   3. Flip bits behind the controller's back (thermal faults).
//   4. Watch ECC-1, RAID-4, SDR and the skewed hash repair them.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "common/rng.h"
#include "sudoku/controller.h"

using namespace sudoku;

namespace {

const char* outcome_name(ReadStatus o) {
  switch (o) {
    case ReadStatus::kClean: return "clean";
    case ReadStatus::kCorrected: return "ECC-1 corrected";
    case ReadStatus::kRepaired: return "RAID/SDR repaired";
    case ReadStatus::kDue: return "UNCORRECTABLE";
  }
  return "?";
}

}  // namespace

int main() {
  // A 1024-line cache with 32-line RAID-Groups, full SuDoku-Z protection.
  SudokuConfig config;
  config.geo.num_lines = 1024;
  config.geo.group_size = 32;
  config.level = SudokuLevel::kZ;
  SudokuController cache(config);

  Rng rng(2024);
  cache.format_random(rng);
  std::printf("formatted %llu lines (%s), PLT storage: %llu bits\n",
              static_cast<unsigned long long>(config.geo.num_lines),
              to_string(config.level),
              static_cast<unsigned long long>(cache.plt_storage_bits()));

  // Host write + read round trip.
  BitVec payload(LineCodec::kDataBits);
  payload.set(0);
  payload.set(511);
  cache.write_data(42, payload);
  auto r = cache.read_data(42);
  std::printf("write/read line 42: %s (data ok: %s)\n", outcome_name(r.status),
              r.data == payload ? "yes" : "NO");

  // One thermal flip: the per-line ECC-1 fast path handles it.
  cache.array().flip(42, 300);
  r = cache.read_data(42);
  std::printf("1-bit fault:  %s (data ok: %s)\n", outcome_name(r.status),
              r.data == payload ? "yes" : "NO");

  // A 5-bit burst: CRC-31 detects, RAID-4 rebuilds from the parity group.
  for (const std::uint32_t b : {7u, 99u, 250u, 401u, 533u}) cache.array().flip(42, b);
  r = cache.read_data(42);
  std::printf("5-bit fault:  %s (data ok: %s)\n", outcome_name(r.status),
              r.data == payload ? "yes" : "NO");

  // The hard case: two 2-fault lines in the same RAID-Group. Plain RAID-4
  // (SuDoku-X) would give up; Sequential Data Resurrection fixes it.
  cache.array().flip(10, 100);
  cache.array().flip(10, 200);
  cache.array().flip(20, 300);
  cache.array().flip(20, 400);
  const std::uint64_t faulty[] = {10, 20};
  const auto stats = cache.scrub_lines(faulty);
  std::printf("2x2-bit scrub: sdr_repairs=%llu raid4=%llu due=%llu\n",
              static_cast<unsigned long long>(stats.sdr_repairs),
              static_cast<unsigned long long>(stats.raid4_repairs),
              static_cast<unsigned long long>(stats.due_lines));

  std::printf("parities consistent after all repairs: %s\n",
              cache.parities_consistent() ? "yes" : "NO");
  return 0;
}
