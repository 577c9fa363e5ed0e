#include "src/workload/job.h"

#include <algorithm>
#include <cmath>

namespace bds {

int64_t MulticastJob::num_blocks() const {
  if (total_bytes <= 0.0 || block_size <= 0.0) {
    return 0;
  }
  return static_cast<int64_t>(std::ceil(total_bytes / block_size - 1e-12));
}

Bytes MulticastJob::BlockSizeOf(int64_t idx) const {
  int64_t n = num_blocks();
  BDS_CHECK(idx >= 0 && idx < n);
  if (idx + 1 < n) {
    return block_size;
  }
  Bytes last = total_bytes - block_size * static_cast<double>(n - 1);
  return last > 0.0 ? last : block_size;
}

Status MulticastJob::Validate(int num_dcs) const {
  if (source_dc < 0 || source_dc >= num_dcs) {
    return InvalidArgumentError("job: bad source DC");
  }
  if (dest_dcs.empty()) {
    return InvalidArgumentError("job: no destination DCs");
  }
  for (DcId d : dest_dcs) {
    if (d < 0 || d >= num_dcs) {
      return InvalidArgumentError("job: bad destination DC");
    }
    if (d == source_dc) {
      return InvalidArgumentError("job: destination equals source");
    }
  }
  // Destinations must be unique.
  std::vector<DcId> sorted = dest_dcs;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return InvalidArgumentError("job: duplicate destination DC");
  }
  if (total_bytes <= 0.0) {
    return InvalidArgumentError("job: size must be positive");
  }
  if (block_size <= 0.0) {
    return InvalidArgumentError("job: block size must be positive");
  }
  // Compared in floating point, before num_blocks() casts to int64_t: a
  // huge (or non-finite) ratio would overflow the cast.
  if (!(total_bytes / block_size - 1e-12 <= static_cast<double>(kMaxJobBlocks))) {
    return InvalidArgumentError("job: too many blocks");
  }
  return Status::Ok();
}

StatusOr<MulticastJob> MakeJob(JobId id, DcId source_dc, std::vector<DcId> dest_dcs,
                               Bytes total_bytes, Bytes block_size, SimTime arrival_time,
                               std::string app_type) {
  MulticastJob job;
  job.id = id;
  job.app_type = std::move(app_type);
  job.source_dc = source_dc;
  job.dest_dcs = std::move(dest_dcs);
  job.total_bytes = total_bytes;
  job.block_size = block_size;
  job.arrival_time = arrival_time;
  // Validate everything except DC-range (the caller knows the topology);
  // range re-checked by consumers via Validate(num_dcs).
  if (job.dest_dcs.empty()) {
    return InvalidArgumentError("MakeJob: no destinations");
  }
  for (DcId d : job.dest_dcs) {
    if (d == source_dc) {
      return InvalidArgumentError("MakeJob: destination equals source");
    }
  }
  if (total_bytes <= 0.0 || block_size <= 0.0) {
    return InvalidArgumentError("MakeJob: sizes must be positive");
  }
  return job;
}

}  // namespace bds
