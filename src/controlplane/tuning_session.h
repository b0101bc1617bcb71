// Per-job fault containment for the multi-job control plane.
//
// One JobTuningSession wraps one job's resumable tuning process (a
// StreamTune session in full mode, a DS2 session when the job was shed by
// admission control) behind a fault-containment boundary:
//
//   - a three-state circuit breaker (closed / open / half-open) around each
//     decision, driven by the job's OWN virtual clock, so a job whose
//     engine keeps failing stops burning scheduler slots while it cools;
//   - per-decision deadline budgets in virtual minutes: a decision that
//     burns more than the budget (fault retries charge the virtual clock)
//     earns a strike, and enough strikes quarantine the job;
//   - a watchdog that quarantines the job outright once the breaker has
//     tripped past its retry budget.
//
// Determinism contract: every input to this state machine — step results,
// virtual timestamps, failure counts — derives from the job's own engine
// and fault plan. Nothing here observes the fleet, the wall clock, or
// other jobs, so a job's full decision trajectory (captured in
// trajectory_hash()) is a pure function of (job graph, engine seed, pinned
// KB snapshot, fault plan).

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "baselines/tuner.h"
#include "common/circuit_breaker.h"
#include "core/streamtune_tuner.h"

namespace streamtune::controlplane {

/// Which tuning policy the job runs (the degradation ladder's top rungs).
enum class JobMode {
  kFull,  ///< StreamTune fine-tuning (model fit + GNN inference per step)
  kShed,  ///< DS2 rate rule (shed by admission control or load shedding)
};

/// Lifecycle of one job inside the control plane.
enum class JobState {
  kRunning,      ///< has decisions left to make
  kConverged,    ///< tuning stopped normally; outcome available
  kQuarantined,  ///< removed by the watchdog (breaker/deadline budget)
  kFailed,       ///< finalization failed; terminal
};

const char* JobModeName(JobMode mode);
const char* JobStateName(JobState state);

/// Fault-containment knobs, all in the job's own virtual minutes.
struct JobFaultOptions {
  /// Virtual-minute budget for one decision (measure + deploy + retries).
  double decision_deadline_minutes = 240;
  /// Deadline overruns tolerated before quarantine.
  int max_deadline_strikes = 3;
  /// Breaker around the decision path.
  CircuitBreakerOptions breaker;
  /// Breaker trips tolerated before the watchdog quarantines the job.
  int max_breaker_trips = 2;
};

/// One job's tuning process plus its containment state. Not thread-safe:
/// the scheduler runs at most one RunDecision per job at a time.
class JobTuningSession {
 public:
  /// Full mode when `tuner` is non-null, shed (DS2) mode otherwise. The
  /// engine must already be deployed and is caller-owned; it must outlive
  /// the session.
  JobTuningSession(std::int64_t id, sim::StreamEngine* engine,
                   std::unique_ptr<core::StreamTuneTuner> tuner,
                   const JobFaultOptions& fault);
  ~JobTuningSession();

  JobTuningSession(const JobTuningSession&) = delete;
  JobTuningSession& operator=(const JobTuningSession&) = delete;

  /// Runs at most one tuning decision: breaker gate, one session step,
  /// deadline accounting, trajectory fold, finalization on stop. Failures
  /// never propagate — they feed the breaker and the watchdog. Returns the
  /// state after the attempt. A breaker-open skip leaves the job kRunning
  /// and makes no decision.
  JobState RunDecision();

  /// Forces the job out of the schedule (fleet-level watchdog).
  void Quarantine() { state_ = JobState::kQuarantined; }

  std::int64_t id() const { return id_; }
  const std::string& name() const { return engine_->graph().name(); }
  JobMode mode() const { return mode_; }
  JobState state() const { return state_; }
  sim::StreamEngine* engine() { return engine_; }
  core::StreamTuneTuner* tuner() { return tuner_.get(); }

  /// Decisions actually executed (breaker skips excluded).
  int decisions() const { return decisions_; }
  /// Rounds the breaker refused to admit a decision.
  int breaker_skips() const { return breaker_skips_; }
  int deadline_strikes() const { return deadline_strikes_; }
  const CircuitBreaker& breaker() const { return breaker_; }

  /// FNV-1a fold of every decision: (index, deployed parallelism, virtual
  /// clock). Two runs made the same decisions iff the hashes match.
  std::uint64_t trajectory_hash() const { return trajectory_hash_; }

  /// The tuning outcome; non-null once kConverged.
  const baselines::TuningOutcome* outcome() const {
    return has_outcome_ ? &outcome_ : nullptr;
  }

 private:
  /// Lazily creates the underlying session and advances it one step.
  Result<bool> StepOnce();
  void FoldTrajectory();

  const std::int64_t id_;
  sim::StreamEngine* engine_;
  std::unique_ptr<core::StreamTuneTuner> tuner_;
  const JobFaultOptions fault_;
  const JobMode mode_;

  /// The tuning process, created by the first admitted decision.
  std::unique_ptr<baselines::TuningSession> session_;

  JobState state_ = JobState::kRunning;
  CircuitBreaker breaker_;
  int decisions_ = 0;
  int breaker_skips_ = 0;
  int deadline_strikes_ = 0;
  std::uint64_t trajectory_hash_ = 14695981039346656037ull;  // FNV offset
  baselines::TuningOutcome outcome_;
  bool has_outcome_ = false;
};

}  // namespace streamtune::controlplane
