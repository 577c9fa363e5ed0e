// One repetition of one end-to-end benchmark workload, driven through the
// public BdsService API and timed only from outside it.
//
//   bds_perfbench --workload=soak_day --seed=1 [--smoke] [--traced]
//
// A repetition is one or more episodes (overload_chaos runs several short
// independent ones; the others run one). Each episode sets its deployment up
// several times in timed batches (only the last deployment is kept) and then
// runs it once. The runner prints one JSON object with the raw
// measurements summed or pooled over episodes: set-up and run times, the
// per-cycle Decide samples, completion samples, accounting, a fingerprint of
// the reports, and — with --traced — every counter and histogram the runs
// left in RunReport::telemetry. perfbench/run.py turns repetitions into
// metrics.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/core/service.h"
#include "src/telemetry/metrics.h"
#include "src/topology/builders.h"

namespace bds {
namespace {

double WallNow() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Peak resident memory of this process image in KiB (VmHWM), or -1. Unlike
// getrusage's ru_maxrss it does not count the parent's memory from before
// exec, so it measures the workload and not the process that launched it.
int64_t PeakRssKib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return -1;
  }
  int64_t kib = -1;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %" SCNd64, &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib;
}

// The four workloads. --smoke shrinks each one along the same code path so
// the self-check finishes in seconds.
struct Workload {
  std::string name;
  int episodes = 1;
  // Set-up timing per episode: setup_batches samples, each the mean of
  // setup_batch consecutive set-ups. A soak set-up takes ~20 us, so one
  // interrupt or page fault can double a single one.
  int setup_batches = 1;
  int setup_batch = 1;
  bool steady = false;  // RunSteadyState (open loop) vs one-shot Run.
  // Chaos plan seed, 0 for none. Fixed per workload: the plan is part of it.
  uint64_t chaos_seed = 0;
  GeoTopologyOptions topo;
  BdsOptions bds;
  SteadyStateOptions steady_options;
  // One-shot workloads: pre-submitted jobs and the run deadline.
  int64_t num_jobs = 0;
  int64_t blocks_per_job = 0;  // Backlog jobs; the pilot sizes by bytes.
  Bytes pilot_bytes = 0.0;
  SimTime deadline = kTimeInfinity;
};

StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed, bool smoke) {
  Workload w;
  w.name = name;
  w.bds.num_threads = 1;
  w.bds.seed = seed;
  if (name == "soak_day" || name == "overload_chaos") {
    // quickstart's steady mode: 4 DCs x 2 servers at 40 MB/s.
    w.topo.num_dcs = 4;
    w.topo.servers_per_dc = 2;
    w.topo.server_up = MBps(40.0);
    w.topo.server_down = MBps(40.0);
    w.steady = true;
    SteadyStateOptions& s = w.steady_options;
    s.arrivals.pattern = ArrivalPattern::kPoisson;
    s.arrivals.seed = seed;
    s.admission.enabled = true;
    s.overload.enabled = true;
    s.max_cycle_stats = 0;  // Keep every CycleStats: Decide samples.
    if (name == "soak_day") {
      s.duration = smoke ? Hours(1.0) : Hours(24.0);
      w.setup_batches = smoke ? 1 : 15;
      w.setup_batch = smoke ? 1 : 20;
      s.arrivals.jobs_per_hour = 600.0;
      s.arrivals.size_scale = 1e-6;
    } else {
      // 10x the soak's rate and job size. Completion times of one overloaded
      // run swing with its arrival draws, so a repetition pools several
      // short independent overload episodes.
      w.episodes = smoke ? 2 : 8;
      w.setup_batches = smoke ? 1 : 4;
      w.setup_batch = smoke ? 1 : 10;
      s.duration = smoke ? 150.0 : 450.0;
      s.arrivals.jobs_per_hour = 6000.0;
      s.arrivals.size_scale = 1e-5;
      // Plan 5 draws every fault kind: link downs, degradations and a flap,
      // a controller outage, report loss, push drops and corruption.
      w.chaos_seed = 5;
    }
    return w;
  }
  if (name == "pilot_fanout") {
    // Fig 9a: one multicast from DC 0 to every other DC.
    w.topo.num_dcs = 10;
    w.topo.servers_per_dc = smoke ? 4 : 32;
    // A set-up takes 0.5-1.5 ms, depending on whether the kernel backs the
    // simulator's hugepage-marked columns with huge pages, so many of them.
    w.setup_batches = smoke ? 1 : 20;
    w.setup_batch = smoke ? 1 : 10;
    w.topo.server_up = MBps(20.0);
    w.topo.server_down = MBps(20.0);
    w.topo.wan_capacity = Gbps(8.0);
    w.topo.wan_capacity_jitter = 0.4;
    w.topo.seed = 2018;
    // The seed draws the payload within 0.5% of the figure's 3 GB.
    Rng rng(seed ^ 0xBE7C4ULL);
    w.pilot_bytes = (smoke ? GB(0.3) : GB(3.0)) * rng.Uniform(0.995, 1.005);
    w.deadline = Hours(24.0);
    return w;
  }
  if (name == "backlog_1m") {
    // bench_fig11's fleet rotation through the real simulator: many
    // 1000-block single-destination jobs, sharded controller, stopped at a
    // deadline after a fixed number of cycles.
    w.topo.num_dcs = 10;
    w.topo.servers_per_dc = 2;
    // Four shards on the one controller thread, solved in turn. On a shared
    // 4-vCPU host a second thread overlapped the shards only when the host
    // gave it a core, which moved Decide between ~34 and ~48 ms per run.
    w.bds.num_shards = 4;
    w.num_jobs = smoke ? 100 : 1000;
    w.blocks_per_job = smoke ? 100 : 1000;
    w.deadline = w.bds.cycle_length * (smoke ? 5 : 40);
    // One set-up takes ~30 ms and holds ~150 MB, so each is its own sample.
    w.setup_batches = smoke ? 1 : 9;
    return w;
  }
  return InvalidArgumentError("unknown workload: " + name);
}

// Episode e of a multi-episode workload draws its own arrivals and fault
// realizations from the benchmark seed.
Workload ForEpisode(Workload w, uint64_t seed, int episode) {
  if (w.episodes > 1) {
    Rng rng(seed * 1000003ULL + static_cast<uint64_t>(episode));
    w.steady_options.arrivals.seed = rng.NextUint64();
    w.bds.seed = rng.NextUint64();
  }
  return w;
}

// Backlog job j: the fleet rotation's source/destination pair, with the
// seed drawing each job's block count within 5% of blocks_per_job.
MulticastJob BacklogJob(const Workload& w, int num_dcs, int64_t j, Rng& rng) {
  const DcId src = static_cast<DcId>(j % num_dcs);
  DcId dst = static_cast<DcId>((j + 1 + j / num_dcs) % num_dcs);
  if (dst == src) {
    dst = static_cast<DcId>((src + 1) % num_dcs);
  }
  const int64_t spread = w.blocks_per_job / 20;
  const int64_t blocks = w.blocks_per_job + rng.UniformInt(-spread, spread);
  return MakeJob(static_cast<JobId>(j), src, {dst},
                 w.bds.block_size * static_cast<double>(blocks), w.bds.block_size)
      .value();
}

// Everything the timed set-up phase produces.
struct Deployment {
  std::unique_ptr<BdsService> service;
  int64_t jobs_submitted = 0;
  int64_t initial_pending = 0;  // Owed deliveries submitted before the run.
  std::string chaos_plan;
};

StatusOr<Deployment> SetUp(const Workload& w) {
  auto topo = BuildGeoTopology(w.topo);
  if (!topo.ok()) {
    return topo.status();
  }
  auto service = BdsService::Create(std::move(topo).value(), w.bds);
  if (!service.ok()) {
    return service.status();
  }
  Deployment d;
  d.service = std::move(service).value();
  BdsService& s = *d.service;
  if (w.chaos_seed != 0) {
    ChaosOptions chaos;
    chaos.horizon = w.steady_options.duration;
    auto plan = s.InstallChaos(w.chaos_seed, chaos);
    if (!plan.ok()) {
      return plan.status();
    }
    d.chaos_plan = plan->description;
  }
  if (w.pilot_bytes > 0.0) {
    std::vector<DcId> dests;
    for (DcId dc = 1; dc < s.topology().num_dcs(); ++dc) {
      dests.push_back(dc);
    }
    auto job = s.CreateJob(/*source_dc=*/0, dests, w.pilot_bytes);
    if (!job.ok()) {
      return job.status();
    }
    d.jobs_submitted = 1;
    d.initial_pending = static_cast<int64_t>(dests.size()) *
                        static_cast<int64_t>(std::ceil(w.pilot_bytes / w.bds.block_size));
  } else if (w.blocks_per_job > 0) {
    Rng rng(w.bds.seed ^ 0xB4C1ULL);
    for (int64_t j = 0; j < w.num_jobs; ++j) {
      MulticastJob job = BacklogJob(w, s.topology().num_dcs(), j, rng);
      d.initial_pending += job.num_blocks() * static_cast<int64_t>(job.dest_dcs.size());
      BDS_RETURN_IF_ERROR(s.SubmitJob(job));
    }
    d.jobs_submitted = w.num_jobs;
  }
  return d;
}

// Measurements summed or pooled over a repetition's episodes.
struct Totals {
  std::vector<double> setup_s;
  // Per episode: wall and CPU time of the run call, simulated seconds it
  // advanced, and how many Decide samples it added to decide_ms.
  std::vector<double> run_wall_s;
  std::vector<double> run_cpu_s;
  std::vector<double> sim_seconds;
  std::vector<double> decide_count;
  double completion_time = 0.0;  // Last delivery of a one-shot drain.
  std::vector<std::string> stop_reasons;
  std::string chaos_plan;
  uint64_t fingerprint = 0;
  std::map<std::string, int64_t> ints;  // Counts, by JSON key.
  std::vector<double> decide_ms;
  std::vector<double> completion_min;
  std::map<std::string, int64_t> counters;
  struct Hist {
    double sum = 0.0;
    int64_t count = 0;
    double max = 0.0;
  };
  std::map<std::string, Hist> histograms;
};

void MixInto(uint64_t& h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 31;
}

// Sets one episode up in timed batches and runs the last deployment.
Status RunEpisode(const Workload& w, bool traced, Totals& t) {
  Deployment d;
  for (int b = 0; b < w.setup_batches; ++b) {
    double batch_s = 0.0;
    for (int i = 0; i < w.setup_batch; ++i) {
      d = Deployment{};  // Tear the previous set-up down outside the timing.
      const double t0 = WallNow();
      auto deployed = SetUp(w);
      batch_s += WallNow() - t0;
      if (!deployed.ok()) {
        return deployed.status();
      }
      d = std::move(deployed).value();
    }
    t.setup_s.push_back(batch_s / w.setup_batch);
  }
  BdsService& service = *d.service;

  telemetry::SetEnabled(traced);
  SteadyStateReport steady;
  const double wall0 = WallNow();
  const double cpu0 = CpuNow();
  Status status = Status::Ok();
  if (w.steady) {
    auto report = service.RunSteadyState(w.steady_options);
    if (report.ok()) {
      steady = std::move(report).value();
    } else {
      status = report.status();
    }
  } else {
    auto report = service.Run(w.deadline);
    if (report.ok()) {
      steady.run = std::move(report).value();
    } else {
      status = report.status();
    }
  }
  t.run_cpu_s.push_back(CpuNow() - cpu0);
  t.run_wall_s.push_back(WallNow() - wall0);
  telemetry::SetEnabled(false);
  BDS_RETURN_IF_ERROR(status);
  const RunReport& run = steady.run;

  const BdsController& ctl = *service.mutable_controller();
  const ReplicaState& state = ctl.state();
  int64_t unfinished_jobs = 0;
  for (JobId job : state.job_ids()) {
    unfinished_jobs += state.JobComplete(job) ? 0 : 1;
  }
  int64_t fallback_cycles = 0;
  int64_t unstarted_jobs = 0;
  const size_t decide_before = t.decide_ms.size();
  for (const CycleStats& c : run.cycles) {
    if (c.scheduled_blocks > 0) {
      t.decide_ms.push_back((c.scheduling_seconds + c.routing_seconds) * 1e3);
    }
    fallback_cycles += c.controller_up ? 0 : 1;
  }
  if (w.steady) {
    for (double s : run.job_durations.samples()) {
      t.completion_min.push_back(ToMinutes(s));
    }
  } else if (w.pilot_bytes > 0.0) {
    for (double m : run.ServerCompletionMinutes()) {
      t.completion_min.push_back(m);
    }
  } else {
    // No backlog job finishes before the deadline. Each job's completion is
    // projected from its own delivery rate so far; a job with no delivery
    // yet has no rate and is counted as unstarted instead.
    for (size_t jp = 0; jp < state.job_ids().size(); ++jp) {
      const MulticastJob* job = state.FindJob(state.job_ids()[jp]);
      const int64_t owed = job->num_blocks() * static_cast<int64_t>(job->dest_dcs.size());
      const int64_t delivered = owed - state.CountOwedInRange(jp, 0, job->num_blocks());
      if (delivered > 0) {
        t.completion_min.push_back(ToMinutes(ctl.simulator().now() * static_cast<double>(owed) /
                                             static_cast<double>(delivered)));
      } else {
        ++unstarted_jobs;
      }
    }
  }
  int64_t degraded_cycles = 0;
  for (int rung = 1; rung < kNumDegradationRungs; ++rung) {
    degraded_cycles += ctl.watchdog().rung_cycles()[rung];
  }
  const AdmissionStats& adm = ctl.admission().stats();

  t.decide_count.push_back(static_cast<double>(t.decide_ms.size() - decide_before));
  t.sim_seconds.push_back(ctl.simulator().now());
  t.completion_time = run.completion_time;
  t.stop_reasons.push_back(StopReasonName(run.stop_reason));
  t.chaos_plan = d.chaos_plan;
  MixInto(t.fingerprint, w.steady ? steady.Fingerprint() : run.Fingerprint());
  auto add = [&t](const char* key, int64_t v) { t.ints[key] += v; };
  add("jobs_generated", d.jobs_submitted + steady.jobs_generated);
  add("jobs_completed", run.jobs_completed_total);
  add("jobs_rejected", adm.rejected);
  add("jobs_unfinished", unfinished_jobs);
  add("jobs_unstarted", unstarted_jobs);
  add("live_pending_end", state.num_pending());
  add("initial_pending", d.initial_pending);
  add("credited", state.total_credited());
  add("cycles", run.total_cycles);
  add("cycles_kept", static_cast<int64_t>(run.cycles.size()));
  add("fallback_cycles", fallback_cycles);
  add("admission_offered", adm.offered);
  add("admission_rejected", adm.rejected);
  add("admission_deferred", adm.deferred);
  add("overrun_cycles", ctl.watchdog().overrun_cycles());
  add("degraded_cycles", degraded_cycles);
  add("sim_events", ctl.simulator().num_completion_events());
  add("sim_reallocations", ctl.simulator().num_reallocations());
  add("fault.link_events", run.faults.link_events);
  add("fault.flows_killed", run.faults.flows_killed);
  add("fault.pushes_dropped", run.faults.pushes_dropped);
  add("fault.reports_lost", run.faults.reports_lost);
  for (const auto& c : run.telemetry.counters) {
    t.counters[c.name] += c.value;
  }
  for (const auto& h : run.telemetry.histograms) {
    Totals::Hist& th = t.histograms[h.name];
    th.sum += h.sum;
    th.count += h.hist.total();
    th.max = std::max(th.max, h.max);
  }
  return Status::Ok();
}

// --- Minimal JSON output (keys and strings here need no escaping). ---

void PrintArray(const std::vector<double>& values) {
  std::printf("[");
  for (size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.17g", i == 0 ? "" : ",", values[i]);
  }
  std::printf("]");
}

void PrintTotals(const Workload& w, int64_t seed, bool smoke, bool traced, const Totals& t) {
  std::printf("{\"workload\":\"%s\",\"seed\":%" PRId64 ",\"smoke\":%d,\"traced\":%d",
              w.name.c_str(), seed, smoke ? 1 : 0, traced ? 1 : 0);
  std::printf(",\"episodes\":%d,\"steady\":%d,\"chaos_plan\":\"%s\"", w.episodes,
              w.steady ? 1 : 0, t.chaos_plan.c_str());
  std::printf(",\"fingerprint\":\"%016" PRIx64 "\"", t.fingerprint);
  std::printf(",\"completion_time\":%.17g", t.completion_time);
  std::printf(",\"block_bytes\":%.17g,\"peak_rss_kib\":%" PRId64, w.bds.block_size,
              PeakRssKib());
  std::printf(",\"stop_reasons\":[");
  for (size_t i = 0; i < t.stop_reasons.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ",", t.stop_reasons[i].c_str());
  }
  std::printf("]");
  for (const auto& [key, value] : t.ints) {
    std::printf(",\"%s\":%" PRId64, key.c_str(), value);
  }
  std::printf(",\"setup_s\":");
  PrintArray(t.setup_s);
  std::printf(",\"run_wall_s\":");
  PrintArray(t.run_wall_s);
  std::printf(",\"run_cpu_s\":");
  PrintArray(t.run_cpu_s);
  std::printf(",\"sim_seconds\":");
  PrintArray(t.sim_seconds);
  std::printf(",\"decide_count\":");
  PrintArray(t.decide_count);
  std::printf(",\"decide_ms\":");
  PrintArray(t.decide_ms);
  std::printf(",\"completion_min\":");
  PrintArray(t.completion_min);
  std::printf(",\"counters\":{");
  const char* sep = "";
  for (const auto& [name, value] : t.counters) {
    std::printf("%s\"%s\":%" PRId64, sep, name.c_str(), value);
    sep = ",";
  }
  std::printf("},\"histograms\":{");
  sep = "";
  for (const auto& [name, h] : t.histograms) {
    std::printf("%s\"%s\":{\"sum\":%.17g,\"count\":%" PRId64 ",\"max\":%.17g}", sep,
                name.c_str(), h.sum, h.count, h.max);
    sep = ",";
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  std::string workload = "soak_day";
  int64_t seed = 1;
  bool smoke = false;
  bool traced = false;
  FlagParser flags;
  flags.AddString("workload", &workload, "soak_day | pilot_fanout | backlog_1m | overload_chaos");
  flags.AddInt("seed", &seed, "input seed");
  flags.AddBool("smoke", &smoke, "run the workload's smoke size");
  flags.AddBool("traced", &traced, "enable telemetry for the runs");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  auto w = MakeWorkload(workload, static_cast<uint64_t>(seed), smoke);
  if (!w.ok()) {
    std::fprintf(stderr, "%s\n", w.status().ToString().c_str());
    return 1;
  }
  Totals totals;
  for (int e = 0; e < w->episodes; ++e) {
    Status status =
        RunEpisode(ForEpisode(*w, static_cast<uint64_t>(seed), e), traced, totals);
    if (!status.ok()) {
      std::fprintf(stderr, "%s episode %d: %s\n", workload.c_str(), e,
                   status.ToString().c_str());
      return 1;
    }
  }
  PrintTotals(*w, seed, smoke, traced, totals);
  return 0;
}

}  // namespace
}  // namespace bds

int main(int argc, char** argv) { return bds::Main(argc, argv); }
