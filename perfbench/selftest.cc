// Self-test of the benchmark's tracing: decorating engines with
// TimingEngine (and attributing decisions through FleetClock) must not
// change a single tuning decision. Run with `python3 perfbench/run.py
// --selftest`; exits 1 when any expectation fails.

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/tuner.h"
#include "core/streamtune_tuner.h"
#include "sim/chaos_engine.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"
#include "workloads/cost_config.h"
#include "workloads/pqp.h"

namespace {

namespace core = streamtune::core;
namespace sim = streamtune::sim;
using streamtune::baselines::TuningOutcome;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool SameOutcome(const TuningOutcome& a, const TuningOutcome& b) {
  return a.final_parallelism == b.final_parallelism &&
         a.total_parallelism == b.total_parallelism &&
         a.reconfigurations == b.reconfigurations &&
         a.backpressure_events == b.backpressure_events &&
         a.ended_with_backpressure == b.ended_with_backpressure &&
         a.iterations == b.iterations &&
         a.tuning_minutes == b.tuning_minutes &&
         a.faults_survived == b.faults_survived && a.retries == b.retries &&
         a.rollbacks == b.rollbacks;
}

/// Drives one StreamTune tuner over a few rate changes, optionally through
/// a fault plan and a TimingEngine, and returns every outcome.
std::vector<TuningOutcome> TuneSchedule(const perfbench::Bundle& bundle,
                                        const sim::FaultPlan& faults,
                                        bool decorated, std::size_t* spans) {
  const streamtune::JobGraph job =
      streamtune::workloads::BuildPqpJob(streamtune::workloads::PqpTemplate::kLinear, 7);
  sim::PerfModel model(job, streamtune::workloads::CostConfigFor(job));
  sim::SimConfig cfg;
  cfg.noise_seed = 4242;
  sim::FlinkEngine flink(job, model, cfg);
  sim::ChaosEngine chaos(&flink, faults);
  perfbench::TimingEngine timing(&chaos, 0);
  sim::StreamEngine* engine =
      decorated ? static_cast<sim::StreamEngine*>(&timing) : &chaos;
  std::vector<TuningOutcome> outcomes;
  if (!engine->Deploy(std::vector<int>(job.num_operators(), 1)).ok()) {
    return outcomes;
  }
  core::StreamTuneTuner tuner(bundle);
  for (double mult : {3.0, 7.0, 1.0, 10.0}) {
    engine->ScaleAllSources(mult);
    auto out = tuner.Tune(engine);
    if (!out.ok()) break;
    outcomes.push_back(*out);
  }
  *spans = timing.spans().size();
  return outcomes;
}

void TestTunerOutcomes(const perfbench::Bundle& bundle) {
  for (const bool faulty : {false, true}) {
    const sim::FaultPlan plan =
        faulty ? sim::FaultPlan::Standard(77) : sim::FaultPlan{};
    std::size_t bare_spans = 0, traced_spans = 0;
    const auto bare = TuneSchedule(bundle, plan, false, &bare_spans);
    const auto traced = TuneSchedule(bundle, plan, true, &traced_spans);
    bool same = bare.size() == 4 && traced.size() == bare.size();
    for (std::size_t i = 0; same && i < bare.size(); ++i) {
      same = SameOutcome(bare[i], traced[i]);
    }
    const std::string tag = faulty ? " (standard fault plan)" : "";
    Expect(same, "decorated TuningOutcomes are identical" + tag);
    Expect(bare_spans == 0 && traced_spans > 0,
           "only the decorated run records spans" + tag);
  }
}

void TestFleet(const perfbench::Bundle& bundle, const char* workload) {
  perfbench::Plan plan = perfbench::MakePlan(workload, 5, 2);
  // Three catalogue cycles keep the test fast.
  plan.fleet_graph.resize(99);
  plan.fleet_noise.resize(99);
  const perfbench::UnitResult bare = perfbench::RunUnit(plan, bundle, false);
  const perfbench::UnitResult traced = perfbench::RunUnit(plan, bundle, true);
  const std::string w = workload;
  Expect(bare.check_errors.empty() && traced.check_errors.empty(),
         w + ": correctness checks pass");
  Expect(bare.hashes.size() == 99 && bare.hashes == traced.hashes,
         w + ": traced trajectory hashes are identical");
  Expect(bare.digest == traced.digest, w + ": traced digest is identical");
  Expect(bare.decision_samples == traced.decision_samples &&
             traced.attributed_decisions +
                     static_cast<long long>(
                         traced.layers.at("controlplane.unattributed_decisions")) ==
                 traced.decision_samples,
         w + ": every latency sample is attributed or counted");
}

void TestStats() {
  Expect(perfbench::CoveredLength({{1, 3}, {2, 4}, {6, 7}}, 0, 10) == 4,
         "overlapping child spans are covered once");
  Expect(perfbench::CoveredLength({{-1, 1}, {9, 12}}, 0, 10) == 2,
         "child spans are clipped to their parent");
  std::vector<double> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  const perfbench::Tail t = perfbench::TailOf(v);
  Expect(t.value == 989 && t.percentile == 99,
         "p99 of 1000 samples leaves ten beyond it");
  v.resize(100);
  const perfbench::Tail t100 = perfbench::TailOf(v);
  Expect(t100.value == 89, "a 100-sample tail leaves ten beyond it");
}

}  // namespace

int main() {
  TestStats();
  perfbench::Plan plan = perfbench::MakePlan("fleet", 5, 2);
  perfbench::Bundle bundle;
  perfbench::SetupTiming timing;
  std::string error;
  if (!perfbench::RunSetup(plan, &bundle, &timing, &error)) {
    std::printf("FAIL set-up: %s\n", error.c_str());
    return 1;
  }
  TestTunerOutcomes(bundle);
  TestFleet(bundle, "fleet");
  TestFleet(bundle, "fleet-chaos");
  std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
