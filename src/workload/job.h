// Multicast transfer jobs: one bulk file replicated from a source DC to a
// set of destination DCs, split into fixed-size blocks (§4.1, default 2 MB).

#ifndef BDS_SRC_WORKLOAD_JOB_H_
#define BDS_SRC_WORKLOAD_JOB_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace bds {

// Largest block count a job may have: the controller packs a block index
// into 34 bits of its candidate key (PackCandidateKey).
inline constexpr int64_t kMaxJobBlocks = (int64_t{1} << 34) - 1;

struct MulticastJob {
  JobId id = kInvalidJob;
  std::string app_type;
  DcId source_dc = kInvalidDc;
  std::vector<DcId> dest_dcs;
  Bytes total_bytes = 0.0;
  Bytes block_size = MB(2.0);
  SimTime arrival_time = 0.0;

  // Number of blocks, rounding the last partial block up.
  int64_t num_blocks() const;

  // Size of the idx-th block (the last one may be smaller).
  Bytes BlockSizeOf(int64_t idx) const;

  // Validation used by every entry point that accepts a job; rejects more
  // than kMaxJobBlocks blocks.
  Status Validate(int num_dcs) const;
};

// Builds a job, assigning `id`. Destinations must not contain the source.
StatusOr<MulticastJob> MakeJob(JobId id, DcId source_dc, std::vector<DcId> dest_dcs,
                               Bytes total_bytes, Bytes block_size = MB(2.0),
                               SimTime arrival_time = 0.0, std::string app_type = "generic");

}  // namespace bds

#endif  // BDS_SRC_WORKLOAD_JOB_H_
