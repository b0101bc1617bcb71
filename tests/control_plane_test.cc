// Tests for the multi-job tuning control plane: admission primitives,
// scheduler edge cases (zero-job fleet, single job, all-quarantined),
// backpressure engage/release, the chaos-storm determinism contract
// (healthy jobs bit-identical to a chaos-free run), and a 10k-job
// concurrent smoke that doubles as the TSan target.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "baselines/ds2.h"
#include "controlplane/control_plane.h"
#include "sim/chaos_engine.h"
#include "workloads/cost_config.h"
#include "workloads/nexmark.h"
#include "workloads/pqp.h"

namespace streamtune::controlplane {
namespace {

std::vector<core::HistoryRecord> SampleCorpus(int samples_per_job = 5) {
  std::vector<JobGraph> jobs;
  jobs.push_back(workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ3,
                                            workloads::Engine::kFlink));
  jobs.push_back(workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                            workloads::Engine::kFlink));
  jobs.push_back(workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, 1));
  core::HistoryOptions opts;
  opts.samples_per_job = samples_per_job;
  return core::CollectHistory(jobs, opts);
}

kb::KbUpdateOptions SmallKbOptions() {
  kb::KbUpdateOptions o;
  o.pretrain.k = 2;
  o.pretrain.epochs = 2;
  o.pretrain.hidden_dim = 16;
  o.min_new_records = 1000;
  return o;
}

std::unique_ptr<kb::KbService> SmallService() {
  auto service = kb::KbService::Build(SampleCorpus(), SmallKbOptions());
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

JobGraph FleetGraph(int i) {
  switch (i % 3) {
    case 0:
      return workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ3,
                                        workloads::Engine::kFlink);
    case 1:
      return workloads::BuildNexmarkJob(workloads::NexmarkQuery::kQ5,
                                        workloads::Engine::kFlink);
    default:
      return workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, 1);
  }
}

// One fleet: per-job inner Flink engines (deployed at all-ones) optionally
// wrapped in per-job chaos from a FleetFaultPlan.
struct Fleet {
  std::vector<std::unique_ptr<sim::StreamEngine>> inner;
  std::vector<std::unique_ptr<sim::ChaosEngine>> chaos;

  sim::StreamEngine* engine(int i) {
    return chaos.empty() ? inner[i].get()
                         : static_cast<sim::StreamEngine*>(chaos[i].get());
  }
};

Fleet MakeFleet(int jobs, const sim::FleetFaultPlan* storm) {
  Fleet fleet;
  for (int i = 0; i < jobs; ++i) {
    JobGraph job = FleetGraph(i);
    sim::PerfModel model(job, workloads::CostConfigFor(job));
    sim::SimConfig cfg;
    cfg.noise_seed = 1000 + static_cast<uint64_t>(i) * 7919;
    auto engine = std::make_unique<sim::FlinkEngine>(job, model, cfg);
    engine->ScaleAllSources(4.0);
    std::vector<int> ones(job.num_operators(), 1);
    EXPECT_TRUE(engine->Deploy(ones).ok());
    fleet.inner.push_back(std::move(engine));
  }
  if (storm != nullptr) {
    for (int i = 0; i < jobs; ++i) {
      fleet.chaos.push_back(std::make_unique<sim::ChaosEngine>(
          fleet.inner[i].get(), storm->PlanFor(i)));
    }
  }
  return fleet;
}

ControlPlaneOptions FastOptions() {
  ControlPlaneOptions opts;
  opts.num_threads = 4;
  opts.decision_period_minutes = 30;
  opts.fault.decision_deadline_minutes = 10000;  // containment off by default
  opts.fault.breaker.failure_threshold = 3;
  opts.fault.breaker.open_minutes = 30;
  opts.fault.max_breaker_trips = 2;
  opts.streamtune.max_iterations = 8;
  opts.streamtune.warmup_records = 40;
  return opts;
}

TEST(AdmissionTest, TokenBucketCapsAndRefills) {
  TokenBucketOptions o;
  o.capacity = 2;
  o.refill_per_minute = 0.5;
  TokenBucket bucket(o);
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_FALSE(bucket.TryAcquire(0));  // drained, no time passed
  EXPECT_TRUE(bucket.TryAcquire(2.0));  // 1 token refilled
  EXPECT_NEAR(bucket.Available(2.0), 0.0, 1e-12);
  EXPECT_NEAR(bucket.Available(100.0), 2.0, 1e-12);  // capped at capacity
}

TEST(AdmissionTest, WatermarkGateHasHysteresis) {
  WatermarkGate gate(WatermarkOptions{4, 1});
  EXPECT_FALSE(gate.Update(3));  // below high: stays released
  EXPECT_TRUE(gate.Update(4));   // engages at high
  EXPECT_TRUE(gate.Update(2));   // above low: stays engaged
  EXPECT_FALSE(gate.Update(1));  // releases at low
  EXPECT_EQ(gate.engage_count(), 1);
  EXPECT_EQ(gate.release_count(), 1);
  EXPECT_TRUE(gate.Update(7));
  EXPECT_EQ(gate.engage_count(), 2);
}

TEST(ControlPlaneTest, ZeroJobFleetReturnsEmptyReport) {
  ControlPlane plane(nullptr, FastOptions());
  auto report = plane.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->jobs, 0);
  EXPECT_EQ(report->decisions, 0);
  EXPECT_EQ(report->rounds, 0);
  EXPECT_EQ(report->converged, 0);
}

// A shed job runs DS2 through the control plane's one-session wrapper;
// stepped to convergence, it must reach exactly what Ds2Tuner::Tune
// reaches on an identical engine — fault-free and under fault plans.
TEST(JobTuningSessionTest, ShedSessionMatchesDs2Tune) {
  JobFaultOptions fault;
  fault.decision_deadline_minutes = 10000;  // containment never engages
  int faults_survived = 0;
  for (int plan : {0, 1, 2, 3}) {
    for (int i = 0; i < 3; ++i) {
      Fleet twins[2];
      for (Fleet& f : twins) {
        f = MakeFleet(i + 1, nullptr);
        if (plan > 0) {
          f.chaos.resize(i);  // only job i is used
          f.chaos.push_back(std::make_unique<sim::ChaosEngine>(
              f.inner[i].get(),
              sim::FaultPlan::Standard(static_cast<uint64_t>(plan))));
        }
      }
      sim::StreamEngine* shed_engine = twins[0].engine(i);
      sim::StreamEngine* tune_engine = twins[1].engine(i);

      JobTuningSession shed(i, shed_engine, nullptr, fault);
      ASSERT_EQ(shed.mode(), JobMode::kShed);
      int decisions = 0;
      while (shed.RunDecision() == JobState::kRunning) {
        ASSERT_LT(++decisions, 1000) << "shed session never converged";
      }
      ASSERT_EQ(shed.state(), JobState::kConverged);
      auto tuned = baselines::Ds2Tuner().Tune(tune_engine);
      ASSERT_TRUE(tuned.ok()) << tuned.status().ToString();

      const baselines::TuningOutcome& a = *shed.outcome();
      const baselines::TuningOutcome& b = *tuned;
      SCOPED_TRACE("plan " + std::to_string(plan) + " job " +
                   std::to_string(i));
      EXPECT_EQ(a.final_parallelism, b.final_parallelism);
      EXPECT_EQ(a.total_parallelism, b.total_parallelism);
      EXPECT_EQ(a.reconfigurations, b.reconfigurations);
      EXPECT_EQ(a.backpressure_events, b.backpressure_events);
      EXPECT_EQ(a.ended_with_backpressure, b.ended_with_backpressure);
      EXPECT_EQ(a.iterations, b.iterations);
      EXPECT_EQ(a.tuning_minutes, b.tuning_minutes);
      EXPECT_EQ(a.faults_survived, b.faults_survived);
      EXPECT_EQ(a.retries, b.retries);
      EXPECT_EQ(a.rollbacks, b.rollbacks);
      EXPECT_EQ(shed_engine->parallelism(), tune_engine->parallelism());
      EXPECT_EQ(shed_engine->virtual_minutes(),
                tune_engine->virtual_minutes());
      faults_survived += a.faults_survived;
    }
  }
  EXPECT_GT(faults_survived, 0) << "the fault plans injected nothing";
}

// DS2 on Nexmark Q3 at 4x oscillates by +-1 on noisy useful time and runs
// its whole 10-iteration budget. The step that spends the budget stops the
// process, so the wrapper counts 10 decisions, not an 11th empty one.
TEST(JobTuningSessionTest, BudgetExhaustingShedJobCountsOnlyWorkingDecisions) {
  Fleet twins[2] = {MakeFleet(1, nullptr), MakeFleet(1, nullptr)};
  JobFaultOptions fault;
  fault.decision_deadline_minutes = 10000;
  JobTuningSession shed(0, twins[0].engine(0), nullptr, fault);
  while (shed.RunDecision() == JobState::kRunning) {
    ASSERT_LT(shed.decisions(), 1000) << "shed session never converged";
  }
  ASSERT_EQ(shed.state(), JobState::kConverged);
  auto tuned = baselines::Ds2Tuner().Tune(twins[1].engine(0));
  ASSERT_TRUE(tuned.ok()) << tuned.status().ToString();
  ASSERT_EQ(tuned->iterations, baselines::Ds2Options{}.max_iterations);
  EXPECT_EQ(shed.decisions(), tuned->iterations);

  const baselines::TuningOutcome& a = *shed.outcome();
  EXPECT_EQ(a.final_parallelism, tuned->final_parallelism);
  EXPECT_EQ(a.total_parallelism, tuned->total_parallelism);
  EXPECT_EQ(a.reconfigurations, tuned->reconfigurations);
  EXPECT_EQ(a.backpressure_events, tuned->backpressure_events);
  EXPECT_EQ(a.ended_with_backpressure, tuned->ended_with_backpressure);
  EXPECT_EQ(a.iterations, tuned->iterations);
  EXPECT_EQ(a.tuning_minutes, tuned->tuning_minutes);
  EXPECT_EQ(twins[0].engine(0)->virtual_minutes(),
            twins[1].engine(0)->virtual_minutes());
}

TEST(ControlPlaneTest, SingleFullJobConvergesAndAdmitsToKb) {
  auto service = SmallService();
  const long long version_before = service->Stats().snapshot_version;
  ControlPlaneOptions opts = FastOptions();
  opts.full_admission.capacity = 4;
  ControlPlane plane(service.get(), opts);

  Fleet fleet = MakeFleet(1, nullptr);
  ASSERT_TRUE(plane.AddJob(0, fleet.engine(0)).ok());
  auto report = plane.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->jobs, 1);
  EXPECT_EQ(report->full_jobs, 1);
  EXPECT_EQ(report->converged, 1);
  EXPECT_GT(report->decisions, 0);
  EXPECT_EQ(report->kb_admitted, 1);
  EXPECT_EQ(service->Stats().snapshot_version, version_before + 1);
  ASSERT_EQ(report->job_reports.size(), 1u);
  EXPECT_NE(report->job_reports[0].trajectory_hash, 0u);
}

TEST(ControlPlaneTest, AdmissionControlShedsOverflowInJobOrder) {
  auto service = SmallService();
  ControlPlaneOptions opts = FastOptions();
  opts.full_admission.capacity = 2;
  ControlPlane plane(service.get(), opts);

  Fleet fleet = MakeFleet(6, nullptr);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(plane.AddJob(i, fleet.engine(i)).ok());
  }
  // The shed boundary is the AddJob order, nothing else.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(plane.job(i)->mode(), i < 2 ? JobMode::kFull : JobMode::kShed)
        << "job " << i;
  }
  auto report = plane.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->full_jobs, 2);
  EXPECT_EQ(report->shed_jobs, 4);
  EXPECT_EQ(report->converged, 6);
}

TEST(ControlPlaneTest, RejectsDuplicateAndUndeployedJobs) {
  ControlPlane plane(nullptr, FastOptions());
  Fleet fleet = MakeFleet(1, nullptr);
  ASSERT_TRUE(plane.AddJob(0, fleet.engine(0)).ok());
  EXPECT_FALSE(plane.AddJob(0, fleet.engine(0)).ok());  // duplicate id

  JobGraph job = FleetGraph(0);
  sim::PerfModel model(job, workloads::CostConfigFor(job));
  sim::FlinkEngine undeployed(job, model);
  EXPECT_FALSE(plane.AddJob(1, &undeployed).ok());
}

TEST(ControlPlaneTest, AllJobsQuarantinedStillTerminates) {
  // Engines whose Measure never succeeds: every decision fails, breakers
  // trip, the watchdog quarantines each job — and Run() terminates without
  // the round-cap hammer.
  auto service = SmallService();
  ControlPlaneOptions opts = FastOptions();
  opts.full_admission.capacity = 8;
  ControlPlane plane(service.get(), opts);

  sim::FaultPlan broken;
  broken.measure_dropout_prob = 1.0;
  broken.max_consecutive_dropouts = 1 << 20;
  Fleet fleet = MakeFleet(4, nullptr);
  std::vector<std::unique_ptr<sim::ChaosEngine>> wrapped;
  for (int i = 0; i < 4; ++i) {
    broken.seed = 77 + static_cast<uint64_t>(i);
    wrapped.push_back(
        std::make_unique<sim::ChaosEngine>(fleet.inner[i].get(), broken));
    ASSERT_TRUE(plane.AddJob(i, wrapped[i].get()).ok());
  }
  auto report = plane.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->quarantined, 4);
  EXPECT_EQ(report->converged, 0);
  EXPECT_EQ(report->watchdog_terminations, 0);  // breakers did it, not the cap
  for (const JobReport& jr : report->job_reports) {
    EXPECT_GE(jr.breaker_trips, 2) << "job " << jr.id;
  }
}

TEST(ControlPlaneTest, BackpressureEngagesAndReleases) {
  auto service = SmallService();
  ControlPlaneOptions opts = FastOptions();
  opts.full_admission.capacity = 12;
  opts.backpressure = WatermarkOptions{4, 1};
  opts.kb_admit_batch = 1;  // slow writer: converging fleet outruns it
  ControlPlane plane(service.get(), opts);

  Fleet fleet = MakeFleet(12, nullptr);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(plane.AddJob(i, fleet.engine(i)).ok());
  }
  auto report = plane.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->converged, 12);
  EXPECT_GE(report->backpressure_engagements, 1);
  EXPECT_GE(report->backpressure_releases, 1);
  // Every enqueued admission eventually lands; nothing leaks in the queue.
  EXPECT_EQ(report->kb_admitted + report->kb_admit_failures +
                report->kb_dropped,
            12);
  EXPECT_GT(report->kb_admitted, 0);
}

TEST(ControlPlaneTest, HealthyJobsBitIdenticalUnderChaosStorm) {
  // The acceptance criterion: a 30% chaos storm must leave the untouched
  // 70% with trajectories bit-identical to a fully chaos-free run.
  constexpr int kJobs = 30;
  sim::FleetFaultPlan storm;
  storm.master_seed = 0xF1EE7;
  storm.fault_fraction = 0.3;
  sim::FleetFaultPlan calm = storm;
  calm.fault_fraction = 0.0;

  auto run = [&](const sim::FleetFaultPlan& plan) {
    auto service = SmallService();
    ControlPlaneOptions opts = FastOptions();
    opts.full_admission.capacity = 6;
    ControlPlane plane(service.get(), opts);
    Fleet fleet = MakeFleet(kJobs, &plan);
    for (int i = 0; i < kJobs; ++i) {
      EXPECT_TRUE(plane.AddJob(i, fleet.engine(i)).ok());
    }
    auto report = plane.Run();
    EXPECT_TRUE(report.ok());
    std::map<std::int64_t, JobReport> by_id;
    for (const JobReport& jr : report->job_reports) by_id[jr.id] = jr;
    return by_id;
  };

  std::map<std::int64_t, JobReport> with_chaos = run(storm);
  std::map<std::int64_t, JobReport> without = run(calm);

  int healthy = 0, faulted = 0;
  for (int i = 0; i < kJobs; ++i) {
    if (storm.Faulted(i)) {
      ++faulted;
      continue;
    }
    ++healthy;
    EXPECT_EQ(with_chaos[i].trajectory_hash, without[i].trajectory_hash)
        << "healthy job " << i << " diverged under the storm";
    EXPECT_EQ(with_chaos[i].decisions, without[i].decisions);
    EXPECT_EQ(with_chaos[i].total_parallelism, without[i].total_parallelism);
  }
  ASSERT_GT(faulted, 0);  // the storm actually hit someone
  ASSERT_GT(healthy, 0);

  // Degraded (shed) jobs under survivable faults still converge via DS2.
  for (int i = 0; i < kJobs; ++i) {
    if (with_chaos[i].mode == JobMode::kShed) {
      EXPECT_EQ(with_chaos[i].state, JobState::kConverged) << "job " << i;
    }
  }
}

TEST(ControlPlaneTest, TenThousandJobConcurrentSmoke) {
  // The TSan shard target: a big shed-mode fleet over the full worker pool.
  // No KB (null service): exercises scheduling, waves and containment only.
  const int jobs = 10000;
  ControlPlaneOptions opts = FastOptions();
  opts.num_threads = 0;  // all hardware threads
  ControlPlane plane(nullptr, opts);
  Fleet fleet = MakeFleet(jobs, nullptr);
  for (int i = 0; i < jobs; ++i) {
    ASSERT_TRUE(plane.AddJob(i, fleet.engine(i)).ok());
  }
  auto report = plane.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->jobs, jobs);
  EXPECT_EQ(report->shed_jobs, jobs);
  EXPECT_EQ(report->converged + report->quarantined + report->failed, jobs);
  EXPECT_GT(report->converged, jobs * 9 / 10);
  EXPECT_GT(report->decisions, jobs);
  EXPECT_GE(report->max_round_batch, 1u);
}

}  // namespace
}  // namespace streamtune::controlplane
