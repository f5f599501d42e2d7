// What a host line read returns, for every scheme with a data path: the
// SuDoku controller (sudoku/controller.h) and the LineScheme interface
// (baselines/scheme.h) the concurrent service drives.
#pragma once

#include "common/bitvec.h"

namespace sudoku {

enum class ReadStatus {
  kClean,      // consistent on arrival
  kCorrected,  // the inner code fixed it inline
  kRepaired,   // needed the group repair machinery (RAID-4 / SDR / Hash-2)
  kDue,        // detectable uncorrectable error: data lost
};

struct ReadResult {
  BitVec data;  // 512 bits; zero when kDue
  ReadStatus status = ReadStatus::kClean;
};

}  // namespace sudoku
