// A small deterministic fork-join worker pool.
//
// ParallelRunner::For partitions an index range into one contiguous slice
// per thread and runs them concurrently. The partition depends only on (n,
// num_threads), and callers write results into pre-sized per-index slots, so
// a parallel run produces byte-identical output to a serial one — the
// determinism contract the controller's thread knob relies on (tests assert
// equal CycleDecision fingerprints for num_threads == 1 and > 1).
//
// ForWeighted partitions by a per-item weight vector instead of by count, so
// heterogeneous work units (per-job candidate ranges) land on threads in
// near-equal total weight. The partition is a pure function of (weights,
// num_threads); outputs stay position-addressed, so the determinism
// contract is unchanged.
//
// With num_threads == 1 no threads are ever created and For() degenerates to
// a plain function call, keeping the default configuration free of any
// synchronization cost. Oversized pools are clamped per call to the number
// of work items: For(n) with n < num_threads wakes (and lazily spawns) only
// n workers, so per-shard passes over a handful of items never pay for a
// fleet of idle threads.

#ifndef BDS_SRC_COMMON_PARALLEL_H_
#define BDS_SRC_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace bds {

class ParallelRunner {
 public:
  // Clamped to [1, hardware_concurrency] — oversubscribing a machine only
  // adds contention, and the slice partition never affects results (callers
  // write to position-addressed slots). Workers (at most num_threads - 1;
  // the calling thread runs the first slice) are spawned lazily, and only as
  // many as a call's work-item count can keep busy.
  explicit ParallelRunner(int num_threads);
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  // Runs fn(begin, end) over disjoint slices covering [0, n). fn must only
  // write to state owned by its slice. Blocks until every slice finished.
  // At most min(num_threads, n) slices run; extra pool capacity stays idle
  // (and unspawned) rather than receiving empty slices.
  void For(size_t n, const std::function<void(size_t begin, size_t end)>& fn);

  // Like For, but slices [0, weights.size()) so every slice carries a
  // near-equal share of the total weight. Items keep their order (slices are
  // contiguous); a deterministic function of (weights, num_threads).
  void ForWeighted(const std::vector<int64_t>& weights,
                   const std::function<void(size_t begin, size_t end)>& fn);

  int num_threads() const { return num_threads_; }

  // Worker threads created so far (test/debug hook; grows lazily up to
  // num_threads - 1).
  int spawned_workers() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop(int worker);
  void EnsureWorkers(int needed);
  // Dispatches fn over the precomputed contiguous `slices` (slice 0 runs on
  // the calling thread, the rest on workers 1..slices.size()-1).
  void RunSlices(std::vector<std::pair<size_t, size_t>> slices,
                 const std::function<void(size_t, size_t)>& fn);

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(size_t, size_t)>* task_ = nullptr;  // Guarded by mu_.
  std::vector<std::pair<size_t, size_t>> task_slices_;         // Guarded by mu_.
  uint64_t generation_ = 0;  // Bumped per For(); workers run once per bump.
  int outstanding_ = 0;
  bool stop_ = false;
};

}  // namespace bds

#endif  // BDS_SRC_COMMON_PARALLEL_H_
