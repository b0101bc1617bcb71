// Event-driven multi-job tuning control plane.
//
// One ControlPlane runs 1k-100k concurrent tuning processes in a single OS
// process against one KbService. The pieces (DESIGN.md section 12):
//
//   - every job is a JobTuningSession (resumable tuning process behind a
//     circuit breaker and deadline budgets), paced by its OWN virtual
//     clock: the next decision is scheduled at the job's virtual-minute
//     position plus a fixed period, merged fleet-wide by a sharded
//     TimerWheel. Faulty jobs burn virtual time on retries and naturally
//     fall behind the healthy fleet;
//   - admission control: a TokenBucket rations the expensive StreamTune
//     path; overflow jobs are shed to the DS2 rate rule in AddJob order, so
//     the shed set is a pure function of the fleet composition;
//   - backpressure: converged sessions enqueue KB admissions into a
//     bounded queue drained in batches after each round; a WatermarkGate
//     over (queue depth + KbService writer queue) slows every job's
//     decision pacing while engaged. Backpressure changes only WHEN
//     decisions run, never what they decide;
//   - fault containment: per-job breakers and deadline strikes quarantine
//     repeat offenders; a fleet watchdog force-quarantines whatever is
//     still running at the round cap, so Run() always terminates;
//   - determinism: every session reads the KB snapshot pinned at
//     construction, decisions execute via the deterministic
//     ThreadPool::ParallelFor, and outcomes are folded serially in job-id
//     order. A job's trajectory hash is a pure function of (graph, engine
//     seed, pinned snapshot, fault plan) — under a partial chaos storm the
//     un-faulted jobs are bit-identical to a chaos-free run.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer_wheel.h"
#include "controlplane/admission.h"
#include "controlplane/tuning_session.h"
#include "kb/kb_service.h"

namespace streamtune::controlplane {

/// Scheduler and robustness knobs.
struct ControlPlaneOptions {
  /// Worker threads for each decision wave (<= 0: hardware concurrency).
  int num_threads = 0;

  /// Timer-wheel geometry (fleet-merged virtual minutes).
  double tick_minutes = 1.0;
  int timer_shards = 8;
  int wheel_ticks = 1024;

  /// Admission control for the full StreamTune path; overflow is shed to
  /// DS2. Capacity is the concurrent full-session budget.
  TokenBucketOptions full_admission;

  /// Virtual minutes between one job's decisions.
  double decision_period_minutes = 30.0;
  /// Deterministic start stagger: job `i` starts at
  /// (i % stagger_slots) * tick_minutes.
  int stagger_slots = 16;
  /// Extra pacing added to every reschedule while backpressure is engaged.
  double backpressure_penalty_minutes = 60.0;

  /// Bounded KB admission queue (drop-oldest beyond capacity).
  std::size_t kb_queue_capacity = 4096;
  /// Admissions drained per scheduler round.
  int kb_admit_batch = 8;
  /// Backpressure watermarks over queue depth + KB writer queue depth.
  WatermarkOptions backpressure;

  /// Per-job fault containment.
  JobFaultOptions fault;
  /// StreamTune knobs for full-mode sessions (shed sessions run DS2 as is).
  core::StreamTuneOptions streamtune;

  /// Fleet watchdog: rounds before everything still running is
  /// force-quarantined (Run() always terminates).
  int max_rounds = 100000;

  /// Optional wall-clock source (seconds, monotone) for throughput and
  /// latency reporting. Null keeps the control plane free of wall time:
  /// timing fields in the report stay zero. Bench binaries inject one.
  std::function<double()> wall_clock;
};

/// Per-job summary in the fleet report.
struct JobReport {
  std::int64_t id = 0;
  JobMode mode = JobMode::kShed;
  JobState state = JobState::kRunning;
  int decisions = 0;
  int breaker_trips = 0;
  int deadline_strikes = 0;
  std::uint64_t trajectory_hash = 0;
  int total_parallelism = 0;
  /// Converged without severe backpressure.
  bool converged_clean = false;
};

/// What one Run() did.
struct ControlPlaneReport {
  int jobs = 0;
  int full_jobs = 0;
  int shed_jobs = 0;
  int converged = 0;
  int converged_full = 0;
  int converged_shed = 0;
  int converged_clean = 0;
  int quarantined = 0;
  int failed = 0;
  /// Jobs force-quarantined by the fleet watchdog at the round cap.
  int watchdog_terminations = 0;

  long long decisions = 0;
  int rounds = 0;
  std::size_t max_round_batch = 0;

  /// Zero unless options.wall_clock was provided.
  double wall_seconds = 0;
  double decisions_per_sec = 0;
  double p50_decision_ms = 0;
  double p99_decision_ms = 0;

  int backpressure_engagements = 0;
  int backpressure_releases = 0;
  long long kb_admitted = 0;
  long long kb_dropped = 0;
  long long kb_admit_failures = 0;
  /// Records enqueued while the gate was engaged (admitted later).
  long long kb_deferred = 0;

  std::vector<JobReport> job_reports;  ///< ascending job id
};

/// The multi-job scheduler. Not thread-safe: one thread drives AddJob/Run;
/// Run() internally fans decision waves out over its own pool.
class ControlPlane {
 public:
  /// Pins `kb`'s current snapshot: every session this plane starts reads
  /// that snapshot (and only Run()'s admissions mutate the service), so
  /// concurrent KB churn cannot perturb any job's trajectory. `kb` must
  /// outlive the plane; it may be null, which disables warm starts and KB
  /// admission (all jobs are shed).
  ControlPlane(kb::KbService* kb, ControlPlaneOptions options);
  ~ControlPlane();

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// Registers a deployed job. Mode is assigned here by admission control
  /// (in call order). Fails on duplicate ids or an undeployed engine. The
  /// engine must outlive the plane.
  Status AddJob(std::int64_t id, sim::StreamEngine* engine);

  /// Runs every job to a terminal state (or the round cap) and reports.
  /// Idempotent per plane: a second call finds no runnable jobs.
  Result<ControlPlaneReport> Run();

  /// The session for `id`; nullptr when unknown. Valid until destruction.
  const JobTuningSession* job(std::int64_t id) const;

  const ControlPlaneOptions& options() const { return options_; }

 private:
  void EnqueueAdmission(JobTuningSession* job);
  void DrainAdmissions();
  std::size_t BackpressureDepth() const;

  kb::KbService* kb_;
  std::shared_ptr<const kb::KbSnapshot> snapshot_;
  ControlPlaneOptions options_;
  ThreadPool pool_;
  TimerWheel wheel_;
  TokenBucket full_bucket_;
  WatermarkGate gate_;

  std::map<std::int64_t, std::unique_ptr<JobTuningSession>> jobs_;
  std::deque<kb::AdmissionRecord> admit_queue_;

  long long kb_admitted_ = 0;
  long long kb_dropped_ = 0;
  long long kb_admit_failures_ = 0;
  long long kb_deferred_ = 0;
  std::vector<double> decision_latencies_ms_;
};

}  // namespace streamtune::controlplane
