#include "controlplane/control_plane.h"

#include <algorithm>

#include "core/history.h"
#include "core/labeling.h"

namespace streamtune::controlplane {

ControlPlane::ControlPlane(kb::KbService* kb, ControlPlaneOptions options)
    : kb_(kb),
      snapshot_(kb ? kb->Snapshot() : nullptr),
      options_(std::move(options)),
      pool_(options_.num_threads),
      wheel_(options_.tick_minutes, options_.timer_shards,
             options_.wheel_ticks),
      full_bucket_(options_.full_admission),
      gate_(options_.backpressure) {}

ControlPlane::~ControlPlane() = default;

Status ControlPlane::AddJob(std::int64_t id, sim::StreamEngine* engine) {
  if (engine == nullptr) {
    return Status::InvalidArgument("AddJob: null engine");
  }
  if (jobs_.count(id) != 0) {
    return Status::InvalidArgument("AddJob: duplicate job id " +
                                   std::to_string(id));
  }
  if (engine->parallelism().empty() || engine->deployment_count() == 0) {
    return Status::FailedPrecondition(
        "AddJob: engine must be deployed before registration (job " +
        std::to_string(id) + ")");
  }

  // Admission control, in AddJob order: which jobs ride the expensive
  // StreamTune path depends only on the fleet composition, never on
  // faults, so a chaos storm cannot move the shed boundary.
  std::unique_ptr<core::StreamTuneTuner> tuner;
  if (snapshot_ != nullptr &&
      full_bucket_.TryAcquire(wheel_.now_minutes())) {
    tuner = snapshot_->NewTuner(engine->graph().name(), options_.streamtune);
  }
  auto session = std::make_unique<JobTuningSession>(
      id, engine, std::move(tuner), options_.fault);
  jobs_.emplace(id, std::move(session));

  // Deterministic start stagger spreads the first wave across ticks.
  const int slots = std::max(1, options_.stagger_slots);
  wheel_.Schedule(id, static_cast<double>(id % slots) * options_.tick_minutes);
  return Status::OK();
}

const JobTuningSession* ControlPlane::job(std::int64_t id) const {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

std::size_t ControlPlane::BackpressureDepth() const {
  std::size_t depth = admit_queue_.size();
  if (kb_ != nullptr) {
    depth += static_cast<std::size_t>(
        std::max(0ll, kb_->Stats().writer_queue_depth()));
  }
  return depth;
}

void ControlPlane::EnqueueAdmission(JobTuningSession* job) {
  sim::StreamEngine* engine = job->engine();
  kb::AdmissionRecord rec;
  rec.record.graph = engine->graph();
  rec.record.parallelism = engine->parallelism();
  rec.record.source_rates = engine->current_source_rates();
  // One labeling measurement of the final deployment. It runs after the
  // trajectory is final, so its clock cost never perturbs the decision
  // sequence; under faults it can fail, which skips the admission.
  Result<sim::JobMetrics> metrics = engine->Measure();
  if (!metrics.ok()) {
    ++kb_admit_failures_;
    return;
  }
  rec.record.labels = core::LabelBottlenecks(engine->graph(), *metrics);
  rec.record.job_cost = core::JobCost(*metrics);
  rec.record.backpressure = metrics->job_backpressure;
  rec.feedback = job->tuner()->FeedbackFor(engine->graph().name());

  if (gate_.engaged()) ++kb_deferred_;
  admit_queue_.push_back(std::move(rec));
  while (admit_queue_.size() > options_.kb_queue_capacity) {
    admit_queue_.pop_front();  // drop-oldest: bounded memory under storms
    ++kb_dropped_;
  }
}

void ControlPlane::DrainAdmissions() {
  if (kb_ == nullptr) {
    kb_dropped_ += static_cast<long long>(admit_queue_.size());
    admit_queue_.clear();
    return;
  }
  for (int i = 0; i < options_.kb_admit_batch && !admit_queue_.empty(); ++i) {
    kb::AdmissionRecord rec = std::move(admit_queue_.front());
    admit_queue_.pop_front();
    if (kb_->Admit(rec).ok()) {
      ++kb_admitted_;
    } else {
      ++kb_admit_failures_;
    }
  }
}

Result<ControlPlaneReport> ControlPlane::Run() {
  ControlPlaneReport report;
  report.jobs = static_cast<int>(jobs_.size());
  const bool timed = static_cast<bool>(options_.wall_clock);
  const double t0 = timed ? options_.wall_clock() : 0;

  while (wheel_.size() > 0) {
    if (report.rounds >= options_.max_rounds) {
      // Fleet watchdog: whatever still holds a wheel slot at the cap is
      // force-quarantined; Run() must terminate even if every job wedged.
      for (auto& [id, job] : jobs_) {
        if (job->state() == JobState::kRunning) {
          job->Quarantine();
          ++report.watchdog_terminations;
        }
      }
      break;
    }
    ++report.rounds;

    const std::vector<std::int64_t> due = wheel_.PopDueBatch();
    if (due.empty()) continue;
    report.max_round_batch = std::max(report.max_round_batch, due.size());

    std::vector<JobTuningSession*> wave(due.size(), nullptr);
    for (std::size_t i = 0; i < due.size(); ++i) {
      wave[i] = jobs_.at(due[i]).get();
    }

    // One batched GNN forward per cluster primes the full-mode embedding
    // caches for this wave (bit-identical to each tuner's lazy path).
    std::vector<std::vector<double>> rates(due.size());
    std::vector<core::StreamTuneTuner::PendingJob> pending;
    for (std::size_t i = 0; i < due.size(); ++i) {
      JobTuningSession* job = wave[i];
      if (job->mode() != JobMode::kFull ||
          job->state() != JobState::kRunning ||
          job->breaker().state() == BreakerState::kOpen) {
        continue;
      }
      rates[i] = job->engine()->current_source_rates();
      pending.push_back(core::StreamTuneTuner::PendingJob{
          job->tuner(), &job->engine()->graph(), &rates[i]});
    }
    if (!pending.empty()) core::StreamTuneTuner::BatchedInference(pending);

    // Decision wave: every job touches only its own state, so the wave is
    // embarrassingly parallel; outcomes are folded serially below, in job
    // id order (PopDueBatch returns ids ascending).
    std::vector<double> latency_ms(due.size(), 0);
    pool_.ParallelFor(0, static_cast<std::int64_t>(due.size()),
                      [&](std::int64_t i) {
                        const double s =
                            timed ? options_.wall_clock() : 0;
                        wave[static_cast<std::size_t>(i)]->RunDecision();
                        if (timed) {
                          latency_ms[static_cast<std::size_t>(i)] =
                              (options_.wall_clock() - s) * 1e3;
                        }
                      });

    for (std::size_t i = 0; i < due.size(); ++i) {
      JobTuningSession* job = wave[i];
      if (timed) decision_latencies_ms_.push_back(latency_ms[i]);
      if (job->state() == JobState::kRunning) {
        // Pace by the job's own virtual clock; engaged backpressure only
        // delays the next decision, it never changes its content.
        double next = job->engine()->virtual_minutes() +
                      options_.decision_period_minutes;
        if (gate_.engaged()) next += options_.backpressure_penalty_minutes;
        wheel_.Schedule(job->id(), next);
      } else if (job->state() == JobState::kConverged &&
                 job->mode() == JobMode::kFull && kb_ != nullptr) {
        EnqueueAdmission(job);
      }
    }

    gate_.Update(BackpressureDepth());  // backlog built by this round
    DrainAdmissions();
    gate_.Update(BackpressureDepth());  // release once drained to low
  }

  // Final drain: admissions left queued when the fleet went quiet.
  while (!admit_queue_.empty()) DrainAdmissions();
  gate_.Update(BackpressureDepth());

  if (timed) {
    report.wall_seconds = options_.wall_clock() - t0;
  }
  for (const auto& [id, job] : jobs_) {
    JobReport jr;
    jr.id = id;
    jr.mode = job->mode();
    jr.state = job->state();
    jr.decisions = job->decisions();
    jr.breaker_trips = job->breaker().trip_count();
    jr.deadline_strikes = job->deadline_strikes();
    jr.trajectory_hash = job->trajectory_hash();
    for (int p : job->engine()->parallelism()) jr.total_parallelism += p;
    const baselines::TuningOutcome* out = job->outcome();
    jr.converged_clean = out != nullptr && !out->ended_with_backpressure;
    report.decisions += jr.decisions;
    if (jr.mode == JobMode::kFull) {
      ++report.full_jobs;
    } else {
      ++report.shed_jobs;
    }
    switch (jr.state) {
      case JobState::kConverged:
        ++report.converged;
        if (jr.mode == JobMode::kFull) ++report.converged_full;
        if (jr.mode == JobMode::kShed) ++report.converged_shed;
        if (jr.converged_clean) ++report.converged_clean;
        break;
      case JobState::kQuarantined:
        ++report.quarantined;
        break;
      case JobState::kFailed:
        ++report.failed;
        break;
      case JobState::kRunning:
        break;
    }
    report.job_reports.push_back(jr);
  }
  report.backpressure_engagements = gate_.engage_count();
  report.backpressure_releases = gate_.release_count();
  report.kb_admitted = kb_admitted_;
  report.kb_dropped = kb_dropped_;
  report.kb_admit_failures = kb_admit_failures_;
  report.kb_deferred = kb_deferred_;

  if (timed && report.wall_seconds > 0) {
    report.decisions_per_sec = report.decisions / report.wall_seconds;
  }
  if (!decision_latencies_ms_.empty()) {
    std::vector<double> sorted = decision_latencies_ms_;
    std::sort(sorted.begin(), sorted.end());
    auto quantile = [&](double q) {
      return sorted[static_cast<std::size_t>(q * (sorted.size() - 1))];
    };
    report.p50_decision_ms = quantile(0.50);
    report.p99_decision_ms = quantile(0.99);
  }
  return report;
}

}  // namespace streamtune::controlplane
