// The decision benchmark's workloads: inputs generated from the workload
// seed, the shared set-up (corpus, pre-training, knowledge base, engines),
// and one timed unit of each workload with its correctness checks.
//
// Every workload is closed loop and runs in this one process:
//   schedule     a StreamTune tuner drives held-out Flink jobs through
//                the periodic rate schedule, one process after another,
//                in one replica per worker thread;
//   fleet        a ControlPlane tunes ~1000 corpus jobs at 4x rates;
//                admission runs 64 of them with StreamTune and sheds the
//                rest to DS2;
//   fleet-chaos  the same fleet under a 30% FleetFaultPlan storm.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/pretrain.h"
#include "dataflow/job_graph.h"
#include "kb/kb_service.h"
#include "sim/chaos_engine.h"
#include "trace.h"

namespace perfbench {

/// Everything a run's inputs derive from.
struct Plan {
  std::string workload;
  std::uint64_t seed = 0;
  /// Pinned worker count for Pretrainer, KB re-pre-training and the
  /// control plane (never 0, which would mean hardware concurrency).
  int threads = 1;

  /// schedule: the jobs in run order, each with its rate multipliers and
  /// engine noise seed.
  struct ScheduleJob {
    streamtune::JobGraph graph;
    std::vector<double> rates;
    std::uint64_t noise_seed = 0;
  };
  std::vector<ScheduleJob> schedule;
  /// schedule, untraced units: concurrent replicas of the whole schedule.
  int schedule_replicas = 1;

  /// fleet, fleet-chaos: job i runs catalogue graph fleet_graph[i] with
  /// engine noise seed fleet_noise[i].
  std::vector<streamtune::JobGraph> catalogue;
  std::vector<int> fleet_graph;
  std::vector<std::uint64_t> fleet_noise;
  bool chaos = false;
  streamtune::sim::FleetFaultPlan storm;
};

/// Workload names this benchmark knows.
bool KnownWorkload(const std::string& name);

/// Generates a workload's inputs from its seed alone.
Plan MakePlan(const std::string& workload, std::uint64_t seed, int threads);

/// The pre-trained bundle every unit starts from.
using Bundle = std::shared_ptr<const streamtune::core::PretrainedBundle>;

/// One set-up, timed by phase (seconds).
struct SetupTiming {
  double collect_s = 0;
  double pretrain_s = 0;
  double kb_build_s = 0;
  double deploy_s = 0;
  double total() const { return collect_s + pretrain_s + kb_build_s + deploy_s; }
};

/// Runs corpus collection, Pretrainer::Run, the KB build and the
/// workload's engine construction and first deploy, timing each phase.
/// Returns false (with `error`) when pre-training or a deploy fails.
bool RunSetup(const Plan& plan, Bundle* bundle, SetupTiming* timing,
              std::string* error);

/// What one timed unit produced. End-to-end fields are filled on every
/// unit; `layers` only on traced units.
struct UnitResult {
  /// Wall seconds of the timed region, and operations that reached a
  /// terminal state per second of it.
  double wall_s = 0;
  double rate = 0;
  /// Decision latency median and tail (ms), the tail's percentile and the
  /// number of samples behind them.
  double p50_ms = 0;
  double tail_ms = 0;
  double tail_percentile = 0;
  long long decision_samples = 0;
  /// Schedule: every decision latency (ms).
  std::vector<double> decision_ms;
  /// Traced fleets: latency samples attributed to a job's decision span.
  long long attributed_decisions = 0;
  /// Schedule: the largest per-job M_f feedback set at the unit's end.
  long long feedback_rows_max = 0;

  /// Operations: tuning processes (schedule) or jobs (fleets).
  int attempted = 0;
  int failed = 0;
  long long reconfigurations = 0;
  double tuning_minutes = 0;
  long long final_parallelism = 0;
  long long oracle_parallelism = 0;

  /// FNV-1a digest of every final parallelism vector and trajectory hash.
  std::uint64_t digest = 0;
  /// Per-job trajectory hashes (fleets).
  std::map<std::int64_t, std::uint64_t> hashes;
  /// Failed correctness checks; non-empty makes the run incorrect.
  std::vector<std::string> check_errors;

  /// Per-layer metrics by name, and every recorded span (traced units
  /// only).
  std::map<std::string, double> layers;
  std::vector<Span> spans;
};

/// Runs one unit of `plan`'s workload over `bundle`; every unit builds its
/// own KB service and engines.
UnitResult RunUnit(const Plan& plan, const Bundle& bundle, bool traced);

/// CPU features and kernel dispatch, as one JSON object.
std::string HostInfoJson(int threads);

}  // namespace perfbench
