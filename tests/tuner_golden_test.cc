// Golden tuning outcomes: every TuningOutcome field, plus the engine's
// virtual clock, for each of the four tuners on one job. Each method runs
// fault-free, under FaultPlan::Standard(1..3), and under a fault storm that
// latches every tuner into hardened mode (step clamping, rollback), over a
// schedule of consecutive tuning processes at changing source rates, so
// the state a tuner carries between processes — ContTune's GP history,
// StreamTune's per-job feedback, ZeroTune's candidate sampler — is pinned
// too.
//
// A change to the tuning loops must leave every value bit-identical. On a
// mismatch the test prints the observed row in the table's own syntax.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/conttune.h"
#include "baselines/ds2.h"
#include "baselines/zerotune.h"
#include "core/history.h"
#include "core/pretrain.h"
#include "core/streamtune_tuner.h"
#include "sim/chaos_engine.h"
#include "sim/engine.h"
#include "sim/metrics_sanitizer.h"
#include "workloads/cost_config.h"
#include "workloads/pqp.h"

namespace streamtune {
namespace {

struct Row {
  std::string method;
  int plan = 0;      ///< see PlanFor
  double rate = 0;   ///< source-rate multiplier of this tuning process
  std::vector<int> final_parallelism;
  int total_parallelism = 0;
  int reconfigurations = 0;
  int backpressure_events = 0;
  bool ended_with_backpressure = false;
  int iterations = 0;
  double tuning_minutes = 0;
  int faults_survived = 0;
  int retries = 0;
  int rollbacks = 0;
  double virtual_minutes = 0;  ///< engine clock after the process

  bool operator==(const Row&) const = default;
};

std::string Format(const Row& r) {
  std::string p;
  for (size_t i = 0; i < r.final_parallelism.size(); ++i) {
    p += (i ? ", " : "") + std::to_string(r.final_parallelism[i]);
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", %d, %.1f, {%s}, %d, %d, %d, %s, %d, %a, %d, %d, "
                "%d, %a},",
                r.method.c_str(), r.plan, r.rate, p.c_str(),
                r.total_parallelism, r.reconfigurations,
                r.backpressure_events,
                r.ended_with_backpressure ? "true" : "false", r.iterations,
                r.tuning_minutes, r.faults_survived, r.retries, r.rollbacks,
                r.virtual_minutes);
  return buf;
}

// One row per tuning process, in Row's field order; doubles are hex floats
// so every bit is pinned. Change a row only with an intended change of
// tuning behaviour, recorded in CHANGES.md.
const std::vector<Row>& Golden() {
  static const std::vector<Row> kRows = {
      {"DS2", 0, 8.0, {1, 1, 1, 4, 1}, 8, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.4p+4},
      {"DS2", 0, 3.0, {1, 1, 1, 2, 1}, 6, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.ep+4},
      {"DS2", 0, 14.0, {1, 1, 1, 6, 1}, 10, 2, 0, false, 3,
       0x1.4p+4, 0, 0, 0, 0x1.9p+5},
      {"DS2", 0, 1.5, {1, 1, 1, 1, 1}, 5, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.ep+5},
      {"DS2", 0, 20.0, {1, 1, 2, 9, 1}, 14, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.18p+6},
      {"DS2", 0, 5.0, {1, 1, 1, 2, 1}, 6, 2, 0, false, 3,
       0x1.4p+4, 0, 0, 0, 0x1.68p+6},
      {"DS2", 1, 8.0, {1, 1, 1, 4, 1}, 8, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.4p+4},
      {"DS2", 1, 3.0, {1, 1, 1, 2, 1}, 6, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.ep+4},
      {"DS2", 1, 14.0, {1, 1, 1, 6, 1}, 10, 2, 0, false, 3,
       0x1.48p+4, 1, 1, 0, 0x1.94p+5},
      {"DS2", 1, 1.5, {1, 1, 1, 1, 1}, 5, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.e4p+5},
      {"DS2", 1, 20.0, {1, 1, 2, 9, 1}, 14, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.1ap+6},
      {"DS2", 1, 5.0, {1, 1, 1, 2, 1}, 6, 2, 0, false, 3,
       0x1.4p+4, 0, 0, 0, 0x1.6ap+6},
      {"DS2", 2, 8.0, {1, 1, 1, 4, 1}, 8, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.4p+4},
      {"DS2", 2, 3.0, {1, 1, 1, 2, 1}, 6, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.ep+4},
      {"DS2", 2, 14.0, {1, 1, 1, 6, 1}, 10, 2, 0, false, 3,
       0x1.48p+4, 2, 2, 0, 0x1.98p+5},
      {"DS2", 2, 1.5, {1, 1, 1, 1, 1}, 5, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.e8p+5},
      {"DS2", 2, 20.0, {1, 1, 2, 9, 1}, 14, 1, 0, false, 2,
       0x1.5p+3, 1, 1, 0, 0x1.1ep+6},
      {"DS2", 2, 5.0, {1, 1, 1, 2, 1}, 6, 2, 0, false, 3,
       0x1.48p+4, 1, 1, 0, 0x1.7p+6},
      {"DS2", 3, 8.0, {1, 1, 1, 4, 1}, 8, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.4p+4},
      {"DS2", 3, 3.0, {1, 1, 1, 2, 1}, 6, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.ep+4},
      {"DS2", 3, 14.0, {1, 1, 1, 6, 1}, 10, 2, 0, false, 3,
       0x1.4p+4, 0, 0, 0, 0x1.9p+5},
      {"DS2", 3, 1.5, {1, 1, 1, 1, 1}, 5, 2, 0, false, 3,
       0x1.4p+4, 0, 0, 0, 0x1.18p+6},
      {"DS2", 3, 20.0, {1, 1, 2, 8, 1}, 13, 1, 1, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.4p+6},
      {"DS2", 3, 5.0, {1, 1, 1, 2, 1}, 6, 2, 0, false, 3,
       0x1.48p+4, 1, 1, 0, 0x1.92p+6},
      {"DS2", 4, 8.0, {1, 1, 1, 4, 1}, 8, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.4p+4},
      {"DS2", 4, 3.0, {1, 1, 1, 2, 1}, 6, 3, 0, false, 4,
       0x1.f8p+4, 3, 3, 0, 0x1.9cp+5},
      {"DS2", 4, 14.0, {1, 1, 1, 6, 1}, 10, 1, 0, false, 2,
       0x1.7p+3, 3, 3, 0, 0x1.fcp+5},
      {"DS2", 4, 1.5, {1, 1, 1, 1, 1}, 5, 1, 0, false, 2,
       0x1.bp+3, 7, 6, 0, 0x1.34p+6},
      {"DS2", 4, 20.0, {1, 1, 2, 9, 1}, 14, 3, 1, false, 4,
       0x1.08p+5, 10, 7, 0, 0x1.bep+6},
      {"DS2", 4, 5.0, {1, 1, 1, 2, 1}, 6, 2, 0, false, 3,
       0x1.6p+4, 3, 3, 0, 0x1.0bp+7},
      {"ContTune", 0, 8.0, {1, 1, 1, 4, 1}, 8, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.4p+4},
      {"ContTune", 0, 3.0, {1, 1, 1, 2, 1}, 6, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.ep+4},
      {"ContTune", 0, 14.0, {1, 1, 1, 6, 1}, 10, 3, 0, false, 4,
       0x1.ep+4, 0, 0, 0, 0x1.ep+5},
      {"ContTune", 0, 1.5, {1, 1, 1, 1, 1}, 5, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.18p+6},
      {"ContTune", 0, 20.0, {1, 1, 2, 9, 1}, 14, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.4p+6},
      {"ContTune", 0, 5.0, {1, 1, 1, 2, 1}, 6, 2, 0, false, 3,
       0x1.4p+4, 0, 0, 0, 0x1.9p+6},
      {"ContTune", 1, 8.0, {1, 1, 1, 4, 1}, 8, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.4p+4},
      {"ContTune", 1, 3.0, {1, 1, 1, 2, 1}, 6, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.ep+4},
      {"ContTune", 1, 14.0, {1, 1, 1, 6, 1}, 10, 3, 0, false, 4,
       0x1.e8p+4, 1, 1, 0, 0x1.e4p+5},
      {"ContTune", 1, 1.5, {1, 1, 1, 1, 1}, 5, 1, 0, false, 2,
       0x1.4p+3, 1, 1, 0, 0x1.1cp+6},
      {"ContTune", 1, 20.0, {1, 1, 2, 9, 1}, 14, 2, 1, false, 3,
       0x1.58p+4, 2, 2, 0, 0x1.72p+6},
      {"ContTune", 1, 5.0, {1, 1, 1, 2, 1}, 6, 2, 0, false, 3,
       0x1.48p+4, 1, 1, 0, 0x1.c4p+6},
      {"ContTune", 2, 8.0, {1, 1, 1, 4, 1}, 8, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.4p+4},
      {"ContTune", 2, 3.0, {1, 1, 1, 2, 1}, 6, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.ep+4},
      {"ContTune", 2, 14.0, {1, 1, 1, 6, 1}, 10, 3, 0, false, 4,
       0x1.fp+4, 2, 2, 0, 0x1.e8p+5},
      {"ContTune", 2, 1.5, {1, 1, 1, 1, 1}, 5, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.1cp+6},
      {"ContTune", 2, 20.0, {1, 1, 2, 9, 1}, 14, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.44p+6},
      {"ContTune", 2, 5.0, {1, 1, 1, 2, 1}, 6, 2, 0, false, 3,
       0x1.48p+4, 1, 1, 0, 0x1.96p+6},
      {"ContTune", 3, 8.0, {1, 1, 1, 4, 1}, 8, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.4p+4},
      {"ContTune", 3, 3.0, {1, 1, 1, 2, 1}, 6, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.ep+4},
      {"ContTune", 3, 14.0, {1, 1, 1, 6, 1}, 10, 3, 0, false, 4,
       0x1.ep+4, 0, 0, 0, 0x1.ep+5},
      {"ContTune", 3, 1.5, {1, 1, 1, 1, 1}, 5, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.18p+6},
      {"ContTune", 3, 20.0, {1, 1, 2, 9, 1}, 14, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.4p+6},
      {"ContTune", 3, 5.0, {1, 1, 1, 2, 1}, 6, 2, 0, false, 3,
       0x1.48p+4, 1, 1, 0, 0x1.92p+6},
      {"ContTune", 4, 8.0, {1, 1, 1, 4, 1}, 8, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.4p+4},
      {"ContTune", 4, 3.0, {1, 1, 1, 2, 1}, 6, 3, 0, false, 4,
       0x1.f8p+4, 3, 3, 0, 0x1.9cp+5},
      {"ContTune", 4, 14.0, {1, 1, 1, 6, 1}, 10, 2, 0, false, 3,
       0x1.6p+4, 6, 5, 0, 0x1.2ap+6},
      {"ContTune", 4, 1.5, {1, 1, 1, 1, 1}, 5, 2, 0, false, 3,
       0x1.5p+4, 3, 2, 0, 0x1.7ep+6},
      {"ContTune", 4, 20.0, {1, 1, 2, 9, 1}, 14, 3, 0, false, 4,
       0x1.2p+5, 11, 10, 0, 0x1.0ap+7},
      {"ContTune", 4, 5.0, {1, 1, 1, 3, 1}, 7, 1, 0, false, 2,
       0x1.4p+3, 2, 2, 0, 0x1.21p+7},
      {"ZeroTune", 0, 8.0, {88, 65, 88, 100, 99}, 440, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.4p+4},
      {"ZeroTune", 0, 3.0, {78, 90, 97, 99, 91}, 455, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.ep+4},
      {"ZeroTune", 0, 14.0, {81, 77, 95, 90, 91}, 434, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.4p+5},
      {"ZeroTune", 0, 1.5, {94, 100, 84, 91, 88}, 457, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.9p+5},
      {"ZeroTune", 0, 20.0, {87, 83, 99, 99, 100}, 468, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.ep+5},
      {"ZeroTune", 0, 5.0, {83, 81, 86, 87, 99}, 436, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.18p+6},
      {"ZeroTune", 1, 8.0, {88, 65, 88, 100, 99}, 440, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.4p+4},
      {"ZeroTune", 1, 3.0, {78, 90, 97, 99, 91}, 455, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.ep+4},
      {"ZeroTune", 1, 14.0, {81, 77, 95, 90, 91}, 434, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.4p+5},
      {"ZeroTune", 1, 1.5, {94, 100, 84, 91, 88}, 457, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.9p+5},
      {"ZeroTune", 1, 20.0, {87, 83, 99, 99, 100}, 468, 1, 0, false, 1,
       0x1.5p+3, 1, 1, 0, 0x1.e4p+5},
      {"ZeroTune", 1, 5.0, {83, 81, 86, 87, 99}, 436, 1, 0, false, 1,
       0x1.5p+3, 1, 1, 0, 0x1.1cp+6},
      {"ZeroTune", 2, 8.0, {88, 65, 88, 100, 99}, 440, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.4p+4},
      {"ZeroTune", 2, 3.0, {78, 90, 97, 99, 91}, 455, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.ep+4},
      {"ZeroTune", 2, 14.0, {81, 77, 95, 90, 91}, 434, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.4p+5},
      {"ZeroTune", 2, 1.5, {94, 100, 84, 91, 88}, 457, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.9p+5},
      {"ZeroTune", 2, 20.0, {87, 83, 99, 99, 100}, 468, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.ep+5},
      {"ZeroTune", 2, 5.0, {83, 81, 86, 87, 99}, 436, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.18p+6},
      {"ZeroTune", 3, 8.0, {88, 65, 88, 100, 99}, 440, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.4p+4},
      {"ZeroTune", 3, 3.0, {78, 90, 97, 99, 91}, 455, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.ep+4},
      {"ZeroTune", 3, 14.0, {81, 77, 95, 90, 91}, 434, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.4p+5},
      {"ZeroTune", 3, 1.5, {94, 100, 84, 91, 88}, 457, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.9p+5},
      {"ZeroTune", 3, 20.0, {87, 83, 99, 99, 100}, 468, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.ep+5},
      {"ZeroTune", 3, 5.0, {83, 81, 86, 87, 99}, 436, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.18p+6},
      {"ZeroTune", 4, 8.0, {88, 65, 88, 100, 99}, 440, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.4p+4},
      {"ZeroTune", 4, 3.0, {78, 90, 97, 99, 91}, 455, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.ep+4},
      {"ZeroTune", 4, 14.0, {81, 77, 95, 90, 91}, 434, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.4p+5},
      {"ZeroTune", 4, 1.5, {94, 100, 84, 91, 88}, 457, 1, 0, false, 1,
       0x1.6p+3, 3, 2, 0, 0x1.98p+5},
      {"ZeroTune", 4, 20.0, {87, 83, 99, 99, 100}, 468, 1, 0, false, 1,
       0x1.5p+3, 1, 1, 0, 0x1.ecp+5},
      {"ZeroTune", 4, 5.0, {83, 81, 86, 87, 99}, 436, 1, 0, false, 1,
       0x1.4p+3, 0, 0, 0, 0x1.1ep+6},
      {"StreamTune", 0, 8.0, {1, 1, 1, 4, 1}, 8, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.4p+4},
      {"StreamTune", 0, 3.0, {1, 1, 1, 2, 1}, 6, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.ep+4},
      {"StreamTune", 0, 14.0, {1, 1, 1, 6, 1}, 10, 3, 1, false, 4,
       0x1.ep+4, 0, 0, 0, 0x1.ep+5},
      {"StreamTune", 0, 1.5, {1, 1, 1, 3, 1}, 7, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.18p+6},
      {"StreamTune", 0, 20.0, {1, 1, 9, 9, 1}, 21, 5, 3, false, 6,
       0x1.9p+5, 0, 0, 0, 0x1.ep+6},
      {"StreamTune", 0, 5.0, {1, 1, 1, 2, 1}, 6, 5, 1, false, 6,
       0x1.9p+5, 0, 0, 0, 0x1.54p+7},
      {"StreamTune", 1, 8.0, {1, 1, 1, 4, 1}, 8, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.4p+4},
      {"StreamTune", 1, 3.0, {1, 1, 1, 2, 1}, 6, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.ep+4},
      {"StreamTune", 1, 14.0, {1, 1, 1, 6, 1}, 10, 27, 13, false, 14,
       0x1.138p+8, 9, 9, 13, 0x1.318p+8},
      {"StreamTune", 1, 1.5, {1, 1, 1, 3, 1}, 7, 1, 0, false, 2,
       0x1.5p+3, 1, 1, 0, 0x1.3cp+8},
      {"StreamTune", 1, 20.0, {1, 1, 8, 9, 1}, 20, 5, 3, false, 6,
       0x1.9p+5, 0, 0, 0, 0x1.6ep+8},
      {"StreamTune", 1, 5.0, {1, 1, 1, 2, 1}, 6, 3, 0, false, 4,
       0x1.f8p+4, 3, 3, 0, 0x1.8d8p+8},
      {"StreamTune", 2, 8.0, {1, 1, 1, 4, 1}, 8, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.4p+4},
      {"StreamTune", 2, 3.0, {1, 1, 1, 2, 1}, 6, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.ep+4},
      {"StreamTune", 2, 14.0, {1, 1, 1, 6, 1}, 10, 27, 13, false, 14,
       0x1.1p+8, 4, 4, 13, 0x1.2ep+8},
      {"StreamTune", 2, 1.5, {1, 1, 1, 3, 1}, 7, 1, 0, false, 2,
       0x1.7p+3, 2, 2, 0, 0x1.398p+8},
      {"StreamTune", 2, 20.0, {1, 1, 100, 9, 1}, 112, 25, 13, false, 14,
       0x1.fbp+7, 6, 6, 11, 0x1.1b8p+9},
      {"StreamTune", 2, 5.0, {1, 1, 1, 2, 1}, 6, 5, 1, false, 6,
       0x1.9p+5, 0, 0, 0, 0x1.348p+9},
      {"StreamTune", 3, 8.0, {1, 1, 1, 4, 1}, 8, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.4p+4},
      {"StreamTune", 3, 3.0, {1, 1, 1, 2, 1}, 6, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.ep+4},
      {"StreamTune", 3, 14.0, {1, 1, 1, 6, 1}, 10, 3, 1, false, 4,
       0x1.ep+4, 0, 0, 0, 0x1.ep+5},
      {"StreamTune", 3, 1.5, {1, 1, 1, 3, 1}, 7, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.18p+6},
      {"StreamTune", 3, 20.0, {3, 3, 8, 9, 1}, 24, 25, 13, false, 14,
       0x1.f9p+7, 4, 4, 11, 0x1.428p+8},
      {"StreamTune", 3, 5.0, {1, 1, 1, 2, 1}, 6, 3, 0, false, 4,
       0x1.ep+4, 0, 0, 0, 0x1.608p+8},
      {"StreamTune", 4, 8.0, {1, 1, 1, 4, 1}, 8, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.4p+4},
      {"StreamTune", 4, 3.0, {1, 1, 1, 2, 1}, 6, 1, 0, false, 2,
       0x1.4p+3, 0, 0, 0, 0x1.ep+4},
      {"StreamTune", 4, 14.0, {1, 1, 1, 3, 1}, 7, 10, 4, false, 7,
       0x1.a4p+6, 10, 9, 4, 0x1.0ep+7},
      {"StreamTune", 4, 1.5, {1, 1, 1, 3, 1}, 7, 0, 0, false, 1,
       0x0p+0, 0, 0, 0, 0x1.0ep+7},
      {"StreamTune", 4, 20.0, {1, 1, 10, 11, 1}, 24, 6, 3, false, 7,
       0x1.08p+6, 9, 9, 0, 0x1.92p+7},
      {"StreamTune", 4, 5.0, {1, 1, 1, 1, 1}, 5, 22, 9, false, 14,
       0x1.d2p+7, 24, 21, 9, 0x1.b2p+8},
  };
  return kRows;
}

constexpr int kStorm = 4;

JobGraph TestJob() {
  return workloads::BuildPqpJob(workloads::PqpTemplate::kTwoWayJoin, 9);
}

class TunerGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::vector<JobGraph> jobs;
    for (int i = 0; i < 6; ++i) {
      jobs.push_back(
          workloads::BuildPqpJob(workloads::PqpTemplate::kLinear, i));
      jobs.push_back(
          workloads::BuildPqpJob(workloads::PqpTemplate::kTwoWayJoin, i));
    }
    core::HistoryOptions hist;
    hist.samples_per_job = 12;
    corpus_ = new std::vector<core::HistoryRecord>(
        core::CollectHistory(jobs, hist));
    core::PretrainOptions pre;
    pre.k = 2;
    pre.epochs = 15;
    auto bundle = core::Pretrainer(pre).Run(*corpus_);
    ASSERT_TRUE(bundle.ok());
    bundle_ = std::make_shared<core::PretrainedBundle>(std::move(*bundle));
  }

  static std::unique_ptr<baselines::ZeroTuneTuner> TrainedZeroTune() {
    baselines::ZeroTuneOptions opts;
    opts.epochs = 15;
    auto tuner = std::make_unique<baselines::ZeroTuneTuner>(opts);
    std::vector<baselines::ZeroTuneExample> examples;
    for (const auto& r : *corpus_) {
      examples.push_back({r.graph, r.parallelism, r.job_cost});
    }
    EXPECT_TRUE(tuner->Train(examples).ok());
    return tuner;
  }

  // 0: fault-free; 1..3: FaultPlan::Standard(plan); 4: a storm of every
  // fault kind, frequent enough that each process sees several.
  static sim::FaultPlan PlanFor(int plan) {
    if (plan < kStorm) return sim::FaultPlan::Standard(plan);
    sim::FaultPlan storm = sim::FaultPlan::Standard(plan);
    storm.deploy_failure_prob = 0.3;
    storm.measure_dropout_prob = 0.3;
    storm.metric_corruption_prob = 0.2;
    storm.straggler_prob = 0.2;
    storm.rate_spike_prob = 0.2;
    return storm;
  }

  // A schedule of tuning processes of `tuner` on a fresh engine.
  static std::vector<Row> Run(baselines::Tuner* tuner, int plan) {
    JobGraph job = TestJob();
    sim::FlinkEngine inner(job,
                           sim::PerfModel(job, workloads::CostConfigFor(job)),
                           sim::SimConfig{});
    std::unique_ptr<sim::ChaosEngine> chaos;
    sim::StreamEngine* engine = &inner;
    if (plan > 0) {
      chaos = std::make_unique<sim::ChaosEngine>(&inner, PlanFor(plan));
      engine = chaos.get();
    }
    std::vector<Row> rows;
    std::vector<int> ones(job.num_operators(), 1);
    EXPECT_TRUE(sim::DeployWithRetry(engine, ones, RetryOptions{}).ok());
    for (double rate : {8.0, 3.0, 14.0, 1.5, 20.0, 5.0}) {
      engine->ScaleAllSources(rate);
      auto out = tuner->Tune(engine);
      EXPECT_TRUE(out.ok()) << tuner->name() << " plan " << plan << ": "
                            << out.status().ToString();
      if (!out.ok()) break;
      rows.push_back({tuner->name(), plan, rate, out->final_parallelism,
                      out->total_parallelism, out->reconfigurations,
                      out->backpressure_events, out->ended_with_backpressure,
                      out->iterations, out->tuning_minutes,
                      out->faults_survived, out->retries, out->rollbacks,
                      engine->virtual_minutes()});
    }
    return rows;
  }

  static void ExpectGolden(const std::vector<Row>& got,
                           const std::string& method) {
    std::vector<Row> want;
    for (const Row& r : Golden()) {
      if (r.method == method) want.push_back(r);
    }
    EXPECT_EQ(want.size(), got.size()) << method;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(i < want.size() && want[i] == got[i])
          << "observed: " << Format(got[i]) << "\n"
          << "expected: " << (i < want.size() ? Format(want[i]) : "(none)");
    }
  }

  static std::shared_ptr<core::PretrainedBundle> bundle_;
  static std::vector<core::HistoryRecord>* corpus_;
};

std::shared_ptr<core::PretrainedBundle> TunerGoldenTest::bundle_;
std::vector<core::HistoryRecord>* TunerGoldenTest::corpus_ = nullptr;

constexpr int kPlans[] = {0, 1, 2, 3, kStorm};

TEST_F(TunerGoldenTest, Ds2OutcomesAreBitIdentical) {
  std::vector<Row> got;
  for (int plan : kPlans) {
    baselines::Ds2Tuner tuner;
    for (Row& r : Run(&tuner, plan)) got.push_back(std::move(r));
  }
  ExpectGolden(got, "DS2");
}

TEST_F(TunerGoldenTest, ContTuneOutcomesAreBitIdentical) {
  std::vector<Row> got;
  for (int plan : kPlans) {
    baselines::ContTuneTuner tuner;
    for (Row& r : Run(&tuner, plan)) got.push_back(std::move(r));
  }
  ExpectGolden(got, "ContTune");
}

TEST_F(TunerGoldenTest, ZeroTuneOutcomesAreBitIdentical) {
  std::vector<Row> got;
  for (int plan : kPlans) {
    auto tuner = TrainedZeroTune();
    for (Row& r : Run(tuner.get(), plan)) got.push_back(std::move(r));
  }
  ExpectGolden(got, "ZeroTune");
}

TEST_F(TunerGoldenTest, StreamTuneOutcomesAreBitIdentical) {
  std::vector<Row> got;
  for (int plan : kPlans) {
    core::StreamTuneTuner tuner(bundle_);
    for (Row& r : Run(&tuner, plan)) got.push_back(std::move(r));
  }
  ExpectGolden(got, "StreamTune");
}

}  // namespace
}  // namespace streamtune
