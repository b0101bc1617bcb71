// The decision benchmark: one tuning decision (measure -> sanitize -> embed
// -> fit M_f -> recommend -> deploy) is the unit of work, grouped into
// tuning processes.
//
//   perfbench --workload schedule|fleet|fleet-chaos --seed N --seconds S
//             --trace 0|1
//
// --trace 0 runs set-up three times, then repeats the workload's unit until
// S seconds have passed (at least once), and prints the end-to-end metrics.
// --trace 1 runs one untraced unit and one traced unit and prints the
// per-layer metrics; --spans PATH also writes every span it recorded as
// JSON lines. Both print a digest of every final parallelism vector
// and trajectory hash, and end with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 1 when a correctness check fails, 2 on bad arguments.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Bundle;
using perfbench::Plan;
using perfbench::SetupTiming;
using perfbench::UnitResult;

constexpr int kSetupRounds = 3;
constexpr int kMaxThreads = 4;

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
};

/// End-to-end metrics, printed with --trace 0 (same names on every
/// workload; BENCHMARK.json lists the same set).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"decision_ms_p50", "ms", "lower"},
    {"decision_ms_p99", "ms", "lower"},
    {"tuning_processes_per_s", "1/s", "higher"},
    {"reconfigs_per_process", "count", "lower"},
    {"parallelism_over_oracle", "ratio", "lower"},
    {"tuning_minutes_per_process", "min", "lower"},
    {"success_share", "ratio", "higher"},
    {"peak_rss_mb", "MB", "lower"},
};

/// Per-layer metrics, printed with --trace 1.
constexpr MetricSpec kPerLayer[] = {
    {"sim.deploy_calls", "count", "lower"},
    {"sim.measure_calls", "count", "lower"},
    {"sim.deploy_ms_p50", "ms", "lower"},
    {"sim.measure_ms_p50", "ms", "lower"},
    {"sim.busy_share", "ratio", "lower"},
    {"sim.faults_injected", "count", "lower"},
    {"ml.fit_calls", "count", "lower"},
    {"ml.fit_rows_mean", "count", "lower"},
    {"ml.feedback_rows_max", "count", "lower"},
    {"ml.fit_ms_p50", "ms", "lower"},
    {"ml.fit_ms_p99", "ms", "lower"},
    {"ml.fit_share", "ratio", "lower"},
    {"ml.embed_ms_p50", "ms", "lower"},
    {"core.session_init_ms_p50", "ms", "lower"},
    {"core.step_ms_p50", "ms", "lower"},
    {"core.step_self_ms_p50", "ms", "lower"},
    {"core.recommend_ms_p50", "ms", "lower"},
    {"core.steps_per_process", "count", "lower"},
    {"index.assign_ms_p50", "ms", "lower"},
    {"index.queries", "count", "lower"},
    {"index.survival_ratio", "ratio", "lower"},
    {"graph.ged_calls", "count", "lower"},
    {"graph.ged_cache_hit_ratio", "ratio", "higher"},
    {"kb.admitted", "count", "higher"},
    {"kb.dropped", "count", "lower"},
    {"kb.deferred", "count", "lower"},
    {"kb.repretrains", "count", "lower"},
    {"controlplane.full_jobs", "count", "higher"},
    {"controlplane.shed_jobs", "count", "lower"},
    {"controlplane.full_decisions", "count", "lower"},
    {"controlplane.shed_decisions", "count", "lower"},
    {"controlplane.full_decision_ms_p50", "ms", "lower"},
    {"controlplane.shed_decision_ms_p50", "ms", "lower"},
    {"controlplane.rounds", "count", "lower"},
    {"controlplane.max_round_batch", "count", "lower"},
    {"controlplane.overhead_s", "s", "lower"},
    {"controlplane.quarantined", "count", "lower"},
    {"controlplane.breaker_trips", "count", "lower"},
    {"controlplane.backpressure_engagements", "count", "lower"},
    {"controlplane.unattributed_decisions", "count", "lower"},
    {"baselines.retries", "count", "lower"},
    {"baselines.rollbacks", "count", "lower"},
    {"baselines.faults_survived", "count", "higher"},
    {"setup.collect_s", "s", "lower"},
    {"setup.pretrain_s", "s", "lower"},
    {"setup.kb_build_s", "s", "lower"},
    {"setup.deploy_s", "s", "lower"},
    {"trace.overhead_ms", "ms", "lower"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  /// --trace 1 only: where to write every span as JSON lines.
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (key == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && perfbench::KnownWorkload(args->workload) &&
         args->seconds > 0 && args->trace >= 0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintMetric(const MetricSpec& m, double value, const std::string& note) {
  std::printf("metric %-40s %14.6f %-6s (%s is better)%s%s\n", m.name, value,
              m.unit, m.better, note.empty() ? "" : "  ", note.c_str());
}

void PrintResult(bool correct, int attempted, int failed,
                 const std::map<std::string, double>& values,
                 const MetricSpec* specs, std::size_t count) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < count; ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", specs[i].name, values.at(specs[i].name),
                specs[i].unit);
  }
  std::printf("}}\n");
}

/// Writes spans as JSON lines, times in ms from the earliest span. A
/// span's id is its index among its job's spans; `parent` names the id of
/// the decision span it ran under (-1: none).
bool WriteSpans(const std::string& path,
                const std::vector<perfbench::Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double origin = spans.empty() ? 0 : spans.front().start;
  for (const perfbench::Span& s : spans) origin = std::min(origin, s.start);
  int id = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    id = i > 0 && spans[i - 1].job == s.job ? id + 1 : 0;
    std::fprintf(f,
                 "{\"job\": %" PRId64 ", \"id\": %d, \"name\": \"%s\", "
                 "\"start_ms\": %.6f, \"end_ms\": %.6f, \"parent\": %d}\n",
                 s.job, id, s.name, (s.start - origin) * 1e3,
                 (s.end - origin) * 1e3, s.parent);
  }
  return std::fclose(f) == 0;
}

/// Checks a unit against the first unit and, under chaos, the unfaulted
/// jobs against the calm reference.
void CheckUnit(const UnitResult& unit, const UnitResult& first,
               const Plan& plan, const UnitResult* calm,
               std::vector<std::string>* errors) {
  errors->insert(errors->end(), unit.check_errors.begin(),
                 unit.check_errors.end());
  if (unit.digest != first.digest) {
    errors->push_back("digest differs between units of one run");
  }
  if (calm == nullptr) return;
  int diverged = 0;
  for (const auto& [id, hash] : unit.hashes) {
    if (plan.storm.Faulted(id)) continue;
    auto it = calm->hashes.find(id);
    if (it == calm->hashes.end() || it->second != hash) ++diverged;
  }
  if (diverged > 0) {
    errors->push_back(std::to_string(diverged) +
                      " unfaulted jobs diverged from the calm reference");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload schedule|fleet|fleet-chaos "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const int threads = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, kMaxThreads);
  const Plan plan = perfbench::MakePlan(args.workload, args.seed, threads);
  std::printf("perfbench workload=%s seed=%" PRIu64 " trace=%d host=%s\n",
              args.workload.c_str(), args.seed, args.trace,
              perfbench::HostInfoJson(threads).c_str());

  // Set-up, several times; every round is identical, so the first round's
  // bundle serves the run.
  Bundle bundle;
  std::vector<double> setup_total, collect, pretrain, kb_build, deploy;
  for (int round = 0; round < kSetupRounds; ++round) {
    Bundle b;
    SetupTiming t;
    std::string error;
    if (!perfbench::RunSetup(plan, &b, &t, &error)) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return 1;
    }
    if (round == 0) bundle = b;
    setup_total.push_back(t.total());
    collect.push_back(t.collect_s);
    pretrain.push_back(t.pretrain_s);
    kb_build.push_back(t.kb_build_s);
    deploy.push_back(t.deploy_s);
  }

  // The storm-free twin of a chaos fleet, for the determinism check.
  UnitResult calm;
  if (plan.chaos) {
    Plan calm_plan = plan;
    calm_plan.chaos = false;
    calm = perfbench::RunUnit(calm_plan, bundle, false);
  }
  const UnitResult* calm_ref = plan.chaos ? &calm : nullptr;
  std::vector<std::string> errors = calm.check_errors;

  std::vector<UnitResult> units;
  UnitResult traced;
  if (args.trace == 0) {
    const double start = perfbench::NowSeconds();
    do {
      units.push_back(perfbench::RunUnit(plan, bundle, false));
    } while (perfbench::NowSeconds() - start < args.seconds);
  } else {
    // The untraced reference matches the traced unit's single replica.
    Plan reference = plan;
    reference.schedule_replicas = 1;
    units.push_back(perfbench::RunUnit(reference, bundle, false));
    traced = perfbench::RunUnit(plan, bundle, true);
    CheckUnit(traced, units.front(), plan, calm_ref, &errors);
  }
  for (const UnitResult& u : units) {
    CheckUnit(u, units.front(), plan, calm_ref, &errors);
  }
  const UnitResult& first = units.front();
  const bool correct = errors.empty();
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  std::printf("digest %016" PRIx64 "\n", first.digest);
  std::printf("units %zu, attempted %d per unit, failed %d per unit, "
              "failed_share %.6f\n",
              units.size(), first.attempted, first.failed,
              first.attempted > 0
                  ? static_cast<double>(first.failed) / first.attempted
                  : 0.0);
  if (plan.workload == "schedule") {
    std::printf("largest per-job M_f feedback at unit end: %lld rows\n",
                first.feedback_rows_max);
  }

  std::map<std::string, double> values;
  if (args.trace == 0) {
    std::vector<double> p50, tail, rate;
    for (const UnitResult& u : units) {
      p50.push_back(u.p50_ms);
      tail.push_back(u.tail_ms);
      rate.push_back(u.rate);
    }
    const double n = std::max(1, first.attempted);
    values["setup_s"] = perfbench::Median(setup_total);
    values["decision_ms_p50"] = perfbench::Median(p50);
    values["decision_ms_p99"] = perfbench::Median(tail);
    values["tuning_processes_per_s"] = perfbench::Median(rate);
    values["reconfigs_per_process"] = first.reconfigurations / n;
    values["parallelism_over_oracle"] =
        first.oracle_parallelism > 0
            ? static_cast<double>(first.final_parallelism) /
                  first.oracle_parallelism
            : 0;
    values["tuning_minutes_per_process"] = first.tuning_minutes / n;
    values["success_share"] = (n - first.failed) / n;
    values["peak_rss_mb"] = PeakRssMb();
    char note[160];
    std::snprintf(note, sizeof note,
                  "p%.1f of %lld decisions per unit, median of %zu units",
                  first.tail_percentile, first.decision_samples, units.size());
    for (const MetricSpec& m : kEndToEnd) {
      std::string why;
      if (std::string(m.name) == "decision_ms_p99") why = note;
      if (std::string(m.name) == "setup_s") {
        why = "median of " + std::to_string(kSetupRounds) + " set-ups";
      }
      PrintMetric(m, values.at(m.name), why);
    }
    std::printf("metric %-40s %14.6f %-6s (lower is better)  %d of %d\n",
                "failed_share", static_cast<double>(first.failed) / n,
                "ratio", first.failed, first.attempted);
    PrintResult(correct, first.attempted, first.failed, values, kEndToEnd,
                std::size(kEndToEnd));
  } else {
    values = traced.layers;
    values["setup.collect_s"] = perfbench::Median(collect);
    values["setup.pretrain_s"] = perfbench::Median(pretrain);
    values["setup.kb_build_s"] = perfbench::Median(kb_build);
    values["setup.deploy_s"] = perfbench::Median(deploy);
    values["trace.overhead_ms"] = traced.p50_ms - first.p50_ms;
    if (!args.spans_path.empty()) {
      if (!WriteSpans(args.spans_path, traced.spans)) {
        std::fprintf(stderr, "cannot write %s\n", args.spans_path.c_str());
        return 1;
      }
      std::printf("spans: %zu written to %s\n", traced.spans.size(),
                  args.spans_path.c_str());
    }
    for (const MetricSpec& m : kPerLayer) {
      if (values.count(m.name) == 0) {
        std::fprintf(stderr, "internal error: no value for %s\n", m.name);
        return 1;
      }
      PrintMetric(m, values.at(m.name), "");
    }
    PrintResult(correct, first.attempted, first.failed, values, kPerLayer,
                std::size(kPerLayer));
  }
  return correct ? 0 : 1;
}
