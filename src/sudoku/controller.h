// The SuDoku cache-resilience controller (paper §III–§V). Owns the stored
// STTRAM line array and the SRAM Parity Line Table(s), and implements the
// three protection levels:
//
//   SuDoku-X : per-line ECC-1 + CRC-31 fast path; RAID-4 reconstruction of
//              a single multi-bit-faulty line per RAID-Group.
//   SuDoku-Y : + Sequential Data Resurrection (SDR) — use parity-mismatch
//              positions to flip-and-try, turning 2-fault lines back into
//              ECC-1-correctable ones; finish the last faulty line with
//              RAID-4.
//   SuDoku-Z : + skewed hashing — every line belongs to a second, disjoint
//              RAID-Group; lines unrepairable under Hash-1 are retried
//              under Hash-2, iterating to a fixed point.
//
// The controller exposes host read/write (with PLT delta maintenance) and
// a scrub entry point used by the Monte-Carlo reliability harness and the
// timing simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/bitvec.h"
#include "common/read_result.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "raid/geometry.h"
#include "raid/parity_table.h"
#include "sttram/array.h"
#include "sudoku/line_codec.h"

namespace sudoku {

enum class SudokuLevel { kX, kY, kZ };

const char* to_string(SudokuLevel level);

struct SudokuConfig {
  RaidGeometry geo;
  SudokuLevel level = SudokuLevel::kZ;
  // Paper §IV-C: SDR is not attempted beyond this many parity mismatches.
  // 0 = auto: 3·(inner_ecc_t + 1), i.e. the paper's six for ECC-1.
  std::uint32_t max_sdr_mismatches = 0;
  // §VII-G enhancement: strength of the per-line inner code (1 = the
  // paper's ECC-1 default; 2 lets SDR resurrect 3-fault lines, etc.).
  int inner_ecc_t = 1;

  std::uint32_t sdr_mismatch_cap() const {
    return max_sdr_mismatches != 0
               ? max_sdr_mismatches
               : 3u * (static_cast<std::uint32_t>(inner_ecc_t) + 1);
  }
};

struct ScrubStats {
  std::uint64_t lines_scanned = 0;
  std::uint64_t lines_clean = 0;
  std::uint64_t ecc1_corrections = 0;    // single-bit repairs
  std::uint64_t raid4_repairs = 0;       // whole-line reconstructions
  std::uint64_t sdr_repairs = 0;         // flip-and-try resurrections
  std::uint64_t hash2_invocations = 0;   // times a Hash-2 group was tried
  std::uint64_t groups_repaired = 0;     // groups needing RAID machinery
  std::uint64_t due_lines = 0;           // declared uncorrectable
  std::vector<std::uint64_t> due_line_ids;
  // Every line a repair wrote back (ECC-1 corrections, RAID-4 victims, SDR
  // resurrections), in repair order, possibly with duplicates. The service
  // layer's retirement policy consumes this: a line that keeps showing up
  // here is a repair that did not stick, i.e. a suspected permanent fault.
  std::vector<std::uint64_t> repaired_line_ids;
};

class SudokuController {
 public:
  explicit SudokuController(const SudokuConfig& config);

  const SudokuConfig& config() const { return config_; }
  const LineCodec& codec() const { return codec_; }
  SttramArray& array() { return array_; }
  const SttramArray& array() const { return array_; }
  const SkewedHash& hash() const { return hash_; }

  // ---- initialisation ----
  // Fill every line with encoded data produced by `make_data(line)` and
  // rebuild all parity tables.
  void format(const std::function<BitVec(std::uint64_t)>& make_data);
  void format_random(Rng& rng);

  // ---- host operations ----
  // Write 512 data bits; performs the two read-modify-writes of §III-B
  // (line + PLT delta; SuDoku-Z also updates the second PLT).
  void write_data(std::uint64_t line, const BitVec& data);

  // Read 512 data bits: kClean (CRC/ECC consistent on arrival), kCorrected
  // (ECC-1 fixed it inline), kRepaired (RAID-4 / SDR / Hash-2) or kDue.
  ReadResult read_data(std::uint64_t line);

  // ---- scrubbing ----
  // Scrub only the given lines (sparse mode for fault-injection: untouched
  // lines cannot have become inconsistent). Each line gets one per-line
  // check, in input order; a line whose verified-clean bit is set (see
  // sttram/array.h) has not changed since it was last found clean, so it is
  // counted clean without being read. Uncorrectable lines are de-duplicated
  // by RAID-Group for the repair machinery.
  ScrubStats scrub_lines(std::span<const std::uint64_t> lines);
  ScrubStats scrub_all();

  // ---- observability ----
  // Attach a metrics registry (nullptr detaches). The controller caches
  // instrument handles once, so instrumented hot paths cost a single
  // well-predicted branch each — and nothing at all when the build
  // disables observability (see obs/macros.h). Counters recorded:
  //   sudoku.read.{clean,corrected,repaired,due}     per read_data outcome
  //   sudoku.scrub.{lines_scanned,lines_clean}       scrub sweep volume
  //   sudoku.repair.{ecc1,raid4,sdr,hash2,groups,due_lines,sdr_attempts}
  //   sudoku.sdr.case{1,2,3}      Fig. 3 breakdown: #faulty lines in group
  //   sudoku.sdr.mismatch_bits    histogram of parity-mismatch popcounts
  void attach_metrics(obs::MetricsRegistry* registry);

  // Parity storage cost in bits across all PLTs (§VII-H).
  std::uint64_t plt_storage_bits() const;

  // Recompute the parity lines covering the given data lines from stored
  // state (both hashes), for harnesses that bypass write_data and mutate
  // the array directly. Restoring lines to the codewords the parity was
  // built from needs no rebuild: parity never saw the faults.
  void rebuild_parities_for(std::span<const std::uint64_t> lines);

  // Verify PLT consistency against the stored array (test hook; O(cache)).
  bool parities_consistent() const;

 private:
  SudokuConfig config_;
  LineCodec codec_;
  SttramArray array_;
  SkewedHash hash_;
  ParityTable plt1_;
  std::optional<ParityTable> plt2_;  // only for SuDoku-Z

  // Cached instrument handles; all null when no registry is attached.
  struct Instruments {
    obs::Counter* read_clean = nullptr;
    obs::Counter* read_corrected = nullptr;
    obs::Counter* read_repaired = nullptr;
    obs::Counter* read_due = nullptr;
    obs::Counter* scrub_lines_scanned = nullptr;
    obs::Counter* scrub_lines_clean = nullptr;
    obs::Counter* repair_ecc1 = nullptr;
    obs::Counter* repair_raid4 = nullptr;
    obs::Counter* repair_sdr = nullptr;
    obs::Counter* repair_sdr_attempts = nullptr;
    obs::Counter* repair_hash2 = nullptr;
    obs::Counter* repair_groups = nullptr;
    obs::Counter* repair_due_lines = nullptr;
    obs::Counter* sdr_case1 = nullptr;
    obs::Counter* sdr_case2 = nullptr;
    obs::Counter* sdr_case3 = nullptr;
    obs::Histogram* sdr_mismatch_bits = nullptr;
  };
  Instruments obs_;

  // Scratch, so that repairs allocate nothing: a parity read (RAID-4, SDR
  // mismatch), a stored line (check_line, SDR trials, format), the SDR
  // mismatch positions and repair_group's result per hash.
  BitVec parity_;
  BitVec line_;
  std::vector<std::size_t> positions_;
  using Lines = std::vector<std::uint64_t>;
  Lines bad_[2];

  std::uint64_t member(std::uint64_t group, int which_hash, std::uint32_t slot) const {
    return which_hash == 1 ? hash_.member1(group, slot) : hash_.member2(group, slot);
  }
  // acc ^= every member of a RAID-Group under the given hash.
  void xor_group_into(std::uint64_t group, int which_hash, BitVec& acc) const;
  ParityTable& plt(int which_hash);
  const ParityTable& plt(int which_hash) const;

  // The per-line ECC-1 + CRC check shared by scrubs and repairs. A verified
  // line is kClean without a read. Otherwise `stored` (scratch) receives the
  // line and check_and_correct runs on it; a corrected line is written back
  // and counted in `stats`. Every result but kUncorrectable leaves the line
  // marked verified.
  LineCodec::LineState check_line(std::uint64_t line, BitVec& stored, ScrubStats& stats);

  // Run the X/Y repair pipeline on one RAID-Group under the given hash.
  // Single-bit lines are fixed and written back; then RAID-4 (one faulty
  // line) or SDR (several) is attempted. Returns lines still uncorrectable,
  // in bad_[which_hash - 1]: valid until the next repair under that hash.
  const Lines& repair_group(std::uint64_t group, int which_hash, ScrubStats& stats);

  // Reconstruct `victim` from the other members + parity; returns true and
  // writes the line back when the reconstruction validates.
  bool raid4_reconstruct(std::uint64_t group, int which_hash, std::uint64_t victim,
                         ScrubStats& stats);

  // SuDoku-Z: fixed-point iteration between Hash-1 and Hash-2 groups.
  const Lines& repair_group_skewed(std::uint64_t group1, ScrubStats& stats);

  // The whole repair pipeline for a Hash-1 group: repair_group_skewed
  // under SuDoku-Z, repair_group otherwise. Returns lines still
  // uncorrectable.
  const Lines& repair_hash1_group(std::uint64_t group1, ScrubStats& stats);

  // Recompute one parity line from the stored members.
  void rebuild_parity(int which_hash, std::uint64_t group);
  void rebuild_parities();
};

}  // namespace sudoku
