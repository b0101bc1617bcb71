// Tracing for the decision benchmark, kept entirely outside the library.
//
// TimingEngine decorates a sim::StreamEngine: every call is forwarded
// unchanged, and Deploy/Measure are timed into spans held in the decorator
// itself (one decorator per job, so recording takes no shared lock). A span
// names its parent decision, which is either opened explicitly by the
// driver (schedule workload) or claimed from the control plane's
// wall-clock hook on the calling thread (fleet workloads; see FleetClock).

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "sim/engine.h"

namespace perfbench {

/// Monotone wall time in seconds (steady_clock).
double NowSeconds();

/// One timed interval. Decision spans have parent == -1; sim spans carry
/// the index of the decision span (in the same job's list) they ran under,
/// or -1 when they ran outside any decision.
struct Span {
  const char* name = "";
  double start = 0;
  double end = 0;
  int parent = -1;
  std::int64_t job = 0;

  double ms() const { return (end - start) * 1e3; }
};

/// Span names, shared so callers can filter without string compares.
inline constexpr const char* kSpanDeploy = "sim.deploy";
inline constexpr const char* kSpanMeasure = "sim.measure";
inline constexpr const char* kSpanInit = "core.session_init";
inline constexpr const char* kSpanStep = "core.step";
inline constexpr const char* kSpanDecision = "controlplane.decision";

class TimingEngine : public streamtune::sim::StreamEngine {
 public:
  /// Non-owning: `inner` must outlive the decorator.
  TimingEngine(streamtune::sim::StreamEngine* inner, std::int64_t job);

  const streamtune::JobGraph& graph() const override;
  int max_parallelism() const override;
  streamtune::Status Deploy(const std::vector<int>& parallelism) override;
  streamtune::Result<streamtune::sim::JobMetrics> Measure() override;
  const std::vector<int>& parallelism() const override;
  void ScaleAllSources(double factor) override;
  std::vector<double> current_source_rates() const override;
  int reconfiguration_count() const override;
  int deployment_count() const override;
  double virtual_minutes() const override;
  void ResetCounters() override;
  void AdvanceVirtualMinutes(double minutes) override;
  std::vector<int> OracleParallelism() const override;

  /// Opens a decision span at `start`; sim spans until CloseDecision name
  /// it as their parent.
  void OpenDecision(double start);
  /// Closes the open decision span at `end` under `name`.
  void CloseDecision(double end, const char* name);

  std::int64_t job() const { return job_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  /// Claims a decision the fleet clock opened on this thread, if any.
  void ClaimThreadDecision();

  streamtune::sim::StreamEngine* inner_;
  std::int64_t job_;
  std::vector<Span> spans_;
  int open_decision_ = -1;
};

/// The control plane's injected wall clock, extended to attribute each
/// decision latency to the job that made it.
///
/// ControlPlane::Run calls the clock once on entry, then twice around each
/// RunDecision (on whichever pool thread runs it, the calling thread
/// included), then once on exit. So on the thread that calls Run, calls
/// after the first alternate start/end, and on pool threads every call
/// does. A start opens a pending decision in thread-local state; the first
/// TimingEngine call on that thread claims it; the end closes it on the
/// claiming engine. Decisions that touch no engine (breaker skips) stay
/// unattributed and are only counted.
///
/// With `attribute` false the clock only counts samples: that is the
/// untraced run's clock.
class FleetClock {
 public:
  explicit FleetClock(bool attribute) : attribute_(attribute) {}
  FleetClock(const FleetClock&) = delete;
  FleetClock& operator=(const FleetClock&) = delete;

  /// Must be called on the thread that will call ControlPlane::Run, right
  /// before it, once per Run.
  void BeginRun();
  /// The wall_clock callback.
  double operator()();

  /// Latency samples the control plane recorded in the last Run.
  long long samples() const;
  /// Decisions that touched no traced engine.
  long long unattributed() const { return unattributed_.load(); }
  /// Sum of all decision latencies in seconds (attributed or not).
  double decision_seconds() const { return decision_ns_.load() * 1e-9; }

  /// Called on the deciding thread at the end of each decision a
  /// TimingEngine claimed, after the latency sample was taken, so work
  /// done here never counts toward the decision.
  std::function<void(TimingEngine*)> on_decision_end;

 private:
  bool attribute_;
  std::thread::id run_thread_;
  std::atomic<long long> calls_{0};
  std::atomic<long long> unattributed_{0};
  std::atomic<long long> decision_ns_{0};
  /// Calls on the Run thread so far in this Run (the first is Run entry).
  long long run_thread_calls_ = 0;
};

}  // namespace perfbench
