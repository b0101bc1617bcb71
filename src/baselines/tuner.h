// Common interface for parallelism tuners.
//
// A tuner drives one "tuning process": starting from the engine's current
// deployment (under possibly changed source rates), it reconfigures the job
// until its convergence criterion holds, and reports how it went. All four
// methods (DS2, ContTune, ZeroTune, StreamTune) implement this interface and
// run unchanged on either simulated engine.
//
// Every method is one resumable TuningSession — one Step() per
// measure -> recommend -> deploy decision, then Finish() — so the paper's
// evaluation loop exists once: Tuner::Tune() drives any session to its stop
// rule, and the multi-job control plane steps the same sessions one
// decision at a time.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/engine.h"

namespace streamtune::baselines {

/// What happened during one tuning process.
struct TuningOutcome {
  /// Final per-operator parallelism degrees.
  std::vector<int> final_parallelism;
  /// Sum of the final degrees (the Fig. 6 / Fig. 8a metric).
  int total_parallelism = 0;
  /// Reconfigurations performed by this tuning process.
  int reconfigurations = 0;
  /// Post-deployment measurements that observed job-level backpressure
  /// during this tuning process (transient, while still iterating).
  int backpressure_events = 0;
  /// True when the process ended with unresolved job-level backpressure —
  /// the method declared convergence on a configuration that cannot sustain
  /// the source rates. Table III counts these failures.
  bool ended_with_backpressure = false;
  /// Tuning iterations executed.
  int iterations = 0;
  /// Virtual minutes spent (stabilization waits), for Fig. 7b.
  double tuning_minutes = 0;
  /// Injected/transient faults this process absorbed without dying:
  /// retried engine calls plus corrupted metric samples replaced by the
  /// sanitizer. 0 on a fault-free run.
  int faults_survived = 0;
  /// Engine calls re-attempted after transient failures.
  int retries = 0;
  /// Roll-backs to the last known-good deployment after a regression.
  int rollbacks = 0;
};

/// One resumable tuning process on one engine.
class TuningSession {
 public:
  virtual ~TuningSession() = default;

  /// One tuning decision. Returns true once the method's stop rule fired
  /// (stable recommendation, this step spent the iteration budget, or
  /// graceful degradation on persistent engine failure); call Finish()
  /// then, and Step() no more.
  virtual Result<bool> Step() = 0;

  /// Final accounting. Call once, after the last Step().
  virtual Result<TuningOutcome> Finish() = 0;
};

/// A parallelism tuning method.
class Tuner {
 public:
  virtual ~Tuner() = default;
  virtual std::string name() const = 0;

  /// Starts a tuning process on `engine` (which must already be deployed
  /// and must outlive the session). Unless the method says otherwise, the
  /// tuner must outlive its sessions too, and a tuner's sessions must not
  /// overlap (they may share the tuner's learned state).
  virtual Result<std::unique_ptr<TuningSession>> NewSession(
      sim::StreamEngine* engine) = 0;

  /// Runs one whole tuning process: NewSession, Step until the stop rule
  /// fires, Finish. Engine counters are read as deltas, so callers need
  /// not reset them.
  Result<TuningOutcome> Tune(sim::StreamEngine* engine) {
    ST_ASSIGN_OR_RETURN(std::unique_ptr<TuningSession> session,
                        NewSession(engine));
    while (true) {
      ST_ASSIGN_OR_RETURN(bool stopped, session->Step());
      if (stopped) break;
    }
    return session->Finish();
  }
};

}  // namespace streamtune::baselines
