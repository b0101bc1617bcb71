#include "trace.h"

#include <algorithm>
#include <chrono>

namespace perfbench {

namespace sim = streamtune::sim;
using streamtune::Result;
using streamtune::Status;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// The fleet decision pending or open on this thread.
struct ThreadDecision {
  bool open = false;
  double start = 0;
  TimingEngine* engine = nullptr;
};
thread_local ThreadDecision tl_decision;

}  // namespace

TimingEngine::TimingEngine(sim::StreamEngine* inner, std::int64_t job)
    : inner_(inner), job_(job) {}

const streamtune::JobGraph& TimingEngine::graph() const {
  return inner_->graph();
}
int TimingEngine::max_parallelism() const { return inner_->max_parallelism(); }

Status TimingEngine::Deploy(const std::vector<int>& parallelism) {
  ClaimThreadDecision();
  Span span{kSpanDeploy, NowSeconds(), 0, open_decision_, job_};
  Status st = inner_->Deploy(parallelism);
  span.end = NowSeconds();
  spans_.push_back(span);
  return st;
}

Result<sim::JobMetrics> TimingEngine::Measure() {
  ClaimThreadDecision();
  Span span{kSpanMeasure, NowSeconds(), 0, open_decision_, job_};
  Result<sim::JobMetrics> metrics = inner_->Measure();
  span.end = NowSeconds();
  spans_.push_back(span);
  return metrics;
}

const std::vector<int>& TimingEngine::parallelism() const {
  return inner_->parallelism();
}
void TimingEngine::ScaleAllSources(double factor) {
  inner_->ScaleAllSources(factor);
}
std::vector<double> TimingEngine::current_source_rates() const {
  return inner_->current_source_rates();
}
int TimingEngine::reconfiguration_count() const {
  return inner_->reconfiguration_count();
}
int TimingEngine::deployment_count() const {
  return inner_->deployment_count();
}
double TimingEngine::virtual_minutes() const {
  return inner_->virtual_minutes();
}
void TimingEngine::ResetCounters() { inner_->ResetCounters(); }
void TimingEngine::AdvanceVirtualMinutes(double minutes) {
  inner_->AdvanceVirtualMinutes(minutes);
}
std::vector<int> TimingEngine::OracleParallelism() const {
  return inner_->OracleParallelism();
}

void TimingEngine::OpenDecision(double start) {
  open_decision_ = static_cast<int>(spans_.size());
  spans_.push_back(Span{"", start, start, -1, job_});
}

void TimingEngine::CloseDecision(double end, const char* name) {
  if (open_decision_ < 0) return;
  Span& d = spans_[static_cast<std::size_t>(open_decision_)];
  d.name = name;
  d.end = end;
  open_decision_ = -1;
}

void TimingEngine::ClaimThreadDecision() {
  ThreadDecision& td = tl_decision;
  if (td.open && td.engine == nullptr) {
    td.engine = this;
    OpenDecision(td.start);
  }
}

void FleetClock::BeginRun() {
  run_thread_ = std::this_thread::get_id();
  run_thread_calls_ = 0;
  calls_.store(0);
  unattributed_.store(0);
  decision_ns_.store(0);
  tl_decision = ThreadDecision{};
}

long long FleetClock::samples() const {
  // Run entry and exit are the two calls that bracket no decision.
  return std::max(0LL, calls_.load() - 2) / 2;
}

double FleetClock::operator()() {
  const double now = NowSeconds();
  calls_.fetch_add(1, std::memory_order_relaxed);
  if (!attribute_) return now;
  if (std::this_thread::get_id() == run_thread_ && run_thread_calls_++ == 0) {
    return now;  // Run entry
  }
  ThreadDecision& td = tl_decision;
  if (!td.open) {
    td = ThreadDecision{true, now, nullptr};
    return now;
  }
  decision_ns_.fetch_add(static_cast<long long>((now - td.start) * 1e9),
                         std::memory_order_relaxed);
  TimingEngine* engine = td.engine;
  td = ThreadDecision{};
  if (engine == nullptr) {
    unattributed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    engine->CloseDecision(now, kSpanDecision);
    if (on_decision_end) on_decision_end(engine);
  }
  return now;
}

}  // namespace perfbench
