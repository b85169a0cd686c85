// perfbench: the repository benchmark. One process runs one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--revision REV] [--spans FILE]
//
// --trace 0 times the workload's driver end to end; --trace 1 also runs
// the benchmark's inline runner untimed and traced and prints the layer
// metrics. The last stdout line is the result JSON; README.md maps every
// metric to its layer and timed call.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "collector/client_fleet.h"
#include "collector/daemon.h"
#include "collector/loadgen.h"
#include "collector/metrics.h"
#include "collector/round_coordinator.h"
#include "collector/shapes_io.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/privshape.h"
#include "layers.h"

namespace perfbench {
namespace {

namespace pc = privshape::collector;
using privshape::JsonValue;
using privshape::Result;
using privshape::Status;
using privshape::core::MechanismConfig;
using privshape::core::MechanismResult;

using Clock = std::chrono::steady_clock;

enum class Driver { kCoordinator, kCore, kSocket };

struct Workload {
  const char* name;
  const char* dataset;
  Driver driver;
  bool classify;
  size_t users;       ///< fleet size of one driver call
  size_t pool_words;  ///< words synthesized per fleet, tiled over its users
  size_t fleets;      ///< independently seeded fleets per run
};

// Why these three: README.md. Pool sizes are multiples of the dataset's
// class count, so labels tile with their words. Symbols runs a mix of
// fleets because its word lengths 7 and 11 are tied (about 24% of words
// each): ell_S, and with it the DTW work, is a coin flip per fleet, and
// one fleet per run would make the run's figures bimodal.
constexpr Workload kWorkloads[] = {
    {"trace-cls-coord", "trace", Driver::kCoordinator, true, 400000, 6000, 1},
    {"symbols-clu-core", "symbols", Driver::kCore, false, 30000, 1200, 48},
    {"trace-clu-socket", "trace", Driver::kSocket, false, 400000, 6000, 1},
};

constexpr size_t kSetupRepeats = 5;
constexpr size_t kMinCalls = 3;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / values.size();
}

/// Rate over a mix of fleets that each served the same number of users:
/// total users over total time, i.e. the harmonic mean of the rates.
double MixRate(const std::vector<double>& rates) {
  double inverse = 0;
  for (double r : rates) inverse += r > 0 ? 1.0 / r : 0.0;
  return inverse > 0 ? rates.size() / inverse : 0.0;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string revision = "unknown";
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0' && value[0] != '-';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (flag == "--revision") {
      args->revision = value;
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (!(have_workload && have_seed && have_seconds && have_trace)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--revision REV] [--spans FILE]\n");
    return false;
  }
  return true;
}

struct Plan {
  Workload w;
  MechanismConfig config;  ///< the dataset's config; each fleet sets seed
  size_t workers = 1;      ///< answering threads of the driver
  size_t connections = 0;  ///< socket workload only
};

/// One seeded fleet: its generated words and labels (all the drivers
/// see) and the reference shapes every call is checked against.
struct Fleet {
  MechanismConfig config;
  std::vector<Sequence> pool;
  std::vector<int> pool_labels;
  std::optional<pc::ClientFleet> fleet;
  /// The whole fleet's words and labels, for core::PrivShape::Run.
  std::vector<Sequence> words;
  std::vector<int> labels;
  double synth_seconds = 0;
  MechanismResult reference;
  /// Users asked and reports accepted by the inline reference run
  /// (symbols-clu-core's check), the counts core::PrivShape::Run cannot
  /// report itself.
  InlineTally reference_tally;
};

Status BuildInputs(const Workload& w, Fleet* f) {
  auto word_fn = pc::GeneratedWordSource(w.dataset, f->config.seed);
  if (!word_fn.ok()) return word_fn.status();
  auto s0 = Clock::now();
  f->pool.clear();
  f->pool.reserve(w.pool_words);
  for (size_t i = 0; i < w.pool_words; ++i) f->pool.push_back((*word_fn)(i));
  f->synth_seconds = Seconds(s0, Clock::now());
  f->pool_labels.clear();
  if (w.classify) {
    auto label_fn = pc::GeneratedLabelSource(w.dataset);
    if (!label_fn.ok()) return label_fn.status();
    for (size_t i = 0; i < w.pool_words; ++i) {
      f->pool_labels.push_back((*label_fn)(i));
    }
  }
  f->fleet = pc::ClientFleet::FromWords(f->pool, w.users, f->config.metric,
                                        f->config.seed, f->pool_labels);
  if (w.driver == Driver::kCore) {
    f->words = f->fleet->MaterializeWords();
    f->labels = f->fleet->MaterializeLabels();
  }
  return Status::Ok();
}

pc::DaemonOptions SocketOptions(const Plan& plan) {
  pc::DaemonOptions options;
  options.min_clients = plan.connections;
  options.num_drainers = 1;
  options.accept_timeout_seconds = 30;
  options.round_deadline_seconds = 60;
  return options;
}

/// One driver call: its window, its users, and whether its shapes match.
struct Call {
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t asked = 0;
  uint64_t accepted = 0;
  bool ok = false;
  std::string error;
  pc::CollectorMetrics metrics;
  std::optional<pc::LoadgenOutcome> loadgen;
};

void Check(const Result<MechanismResult>& result,
           const MechanismResult& reference, const char* mismatch,
           Call* call) {
  if (!result.ok()) {
    call->error = result.status().ToString();
  } else if (!pc::SameShapes(*result, reference)) {
    call->error = mismatch;
  } else {
    call->ok = true;
  }
}

void FillCounts(Call* call) {
  for (const auto& round : call->metrics.rounds) call->asked += round.users;
  call->accepted = call->metrics.TotalAccepted();
}

Call RunCoordinator(const Fleet& f, privshape::ThreadPool* pool) {
  Call call;
  pc::CollectorOptions options;  // streaming, the default topology
  pc::RoundCoordinator coordinator(f.config, options, pool);
  double c0 = CpuSeconds();
  auto t0 = Clock::now();
  auto result = coordinator.Collect(*f.fleet, &call.metrics);
  call.wall_s = Seconds(t0, Clock::now());
  call.cpu_s = CpuSeconds() - c0;
  FillCounts(&call);
  Check(result, f.reference,
        "coordinator shapes differ from core::PrivShape::Run", &call);
  return call;
}

Call RunCore(const Plan& plan, const Fleet& f) {
  Call call;
  privshape::core::PrivShape mechanism(f.config);
  double c0 = CpuSeconds();
  auto t0 = Clock::now();
  auto result = mechanism.Run(f.words, plan.w.classify ? &f.labels : nullptr);
  call.wall_s = Seconds(t0, Clock::now());
  call.cpu_s = CpuSeconds() - c0;
  // Run has no report path to reject on: its users are the populations
  // the inline reference asked, valid because the shapes must match.
  call.asked = f.reference_tally.asked;
  call.accepted = f.reference_tally.accepted;
  Check(result, f.reference, "core shapes differ from the inline runner",
        &call);
  return call;
}

Call RunSocket(const Plan& plan, const Fleet& f) {
  Call call;
  pc::CollectorDaemon daemon(f.config, plan.w.users, SocketOptions(plan));
  Status started = daemon.Start();
  if (!started.ok()) {
    call.error = started.ToString();
    return call;
  }
  Result<MechanismResult> served = Status::Internal("daemon did not serve");
  std::thread serve([&] { served = daemon.Serve(&call.metrics); });
  pc::LoadgenOptions options;
  options.port = daemon.port();
  options.connections = plan.connections;
  options.timeout_seconds = 60;
  double c0 = CpuSeconds();
  auto t0 = Clock::now();
  auto outcome = pc::RunLoadgen(*f.fleet, options);
  call.wall_s = Seconds(t0, Clock::now());
  call.cpu_s = CpuSeconds() - c0;
  serve.join();
  FillCounts(&call);
  if (!outcome.ok()) {
    call.error = "loadgen: " + outcome.status().ToString();
    return call;
  }
  Check(served, f.reference, "daemon shapes differ from core::PrivShape::Run",
        &call);
  if (call.ok && !pc::SameShapes(outcome->result, f.reference)) {
    call.ok = false;
    call.error = "loadgen shapes differ from core::PrivShape::Run";
  }
  call.loadgen = std::move(*outcome);
  return call;
}

/// One DriveProtocol run through the benchmark's inline runner.
struct InlineRun {
  Result<MechanismResult> result = Status::Internal("not run");
  InlineTally tally;
  pc::CollectorMetrics metrics;
  double wall_s = 0;
};

InlineRun RunInline(const Plan& plan, const Fleet& f, LayerTrace* trace) {
  InlineRun run;
  pc::RoundRunner runner = InlineRunner(*f.fleet, f.pool, &run.tally, trace);
  auto t0 = Clock::now();
  run.result = pc::DriveProtocol(f.config, plan.w.users, runner,
                                 &run.metrics);
  run.wall_s = Seconds(t0, Clock::now());
  return run;
}

/// The reference shapes of a fleet, outside every timed window:
/// core::PrivShape::Run checks the coordinator and the socket pair, the
/// inline runner checks core::PrivShape::Run.
Status ComputeReference(const Plan& plan, Fleet* f) {
  if (plan.w.driver == Driver::kCore) {
    InlineRun run = RunInline(plan, *f, nullptr);
    if (!run.result.ok()) return run.result.status();
    f->reference = *run.result;
    f->reference_tally = run.tally;
    return Status::Ok();
  }
  std::vector<Sequence> words = f->fleet->MaterializeWords();
  std::vector<int> labels = f->fleet->MaterializeLabels();
  auto run = privshape::core::PrivShape(f->config)
                 .Run(words, plan.w.classify ? &labels : nullptr);
  if (!run.ok()) return run.status();
  f->reference = *run;
  return Status::Ok();
}

/// Accumulates pass/fail over every protocol run the process makes.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void Add(uint64_t asked, uint64_t accepted, bool ok,
           const std::string& what, const std::string& error) {
    attempted += asked;
    if (ok) {
      failed += asked - std::min(asked, accepted);
    } else {
      failed += asked;
      correct = false;
      std::fprintf(stderr, "FAIL %s: %s\n", what.c_str(), error.c_str());
    }
  }
};

/// Everything measured on one fleet.
struct FleetRuns {
  std::vector<Call> calls;
  std::vector<InlineRun> plain;
  std::vector<InlineRun> traced;
  std::vector<LayerTrace> traces;
  std::vector<ServerTimes> server;
  size_t distinct_words = 0;
  int ell_s = 0;

  std::vector<double> Rates() const {
    std::vector<double> rates;
    for (const Call& c : calls) {
      if (c.ok) rates.push_back(c.accepted / c.wall_s);
    }
    return rates;
  }
};

void AddMetric(JsonValue* metrics, const std::string& name, double value,
               const char* unit) {
  JsonValue entry = JsonValue::Object();
  entry.Set("value", JsonValue::Num(value));
  entry.Set("unit", JsonValue::Str(unit));
  metrics->Set(name, std::move(entry));
}

/// Per-stage sums of one CollectorMetrics: round milliseconds, plus the
/// batch-weighted ingest p50 and the worst round's p99 (microseconds).
struct RoundSummary {
  double round_ms[kNumStages] = {};
  double ingest_p50_us = 0;
  double ingest_p99_us = 0;
};

RoundSummary Summarize(const pc::CollectorMetrics& metrics) {
  RoundSummary summary;
  double weight = 0;
  for (const auto& round : metrics.rounds) {
    summary.round_ms[StageOf(round.stage)] += round.seconds * 1e3;
    double batches = static_cast<double>(round.ingest_batches);
    summary.ingest_p50_us += round.ingest_p50_ns / 1e3 * batches;
    weight += batches;
    summary.ingest_p99_us =
        std::max(summary.ingest_p99_us, round.ingest_p99_ns / 1e3);
  }
  if (weight > 0) summary.ingest_p50_us /= weight;
  return summary;
}

/// The per-layer metrics of a traced run (README.md lists them).
void AddLayerMetrics(const Plan& plan, const std::vector<FleetRuns>& runs,
                     double accepted_per_s,
                     const std::vector<double>& synth_us_per_word,
                     JsonValue* metrics) {
  std::vector<const LayerTrace*> traces;
  std::vector<double> self_ms;
  for (const FleetRuns& r : runs) {
    for (size_t i = 0; i < r.traced.size() && i < r.traces.size(); ++i) {
      traces.push_back(&r.traces[i]);
      self_ms.push_back(r.traced[i].wall_s * 1e3 - r.traces[i].runner_ns / 1e6);
    }
  }
  auto median_of = [&](auto&& per_trace) {
    std::vector<double> values;
    for (const LayerTrace* t : traces) values.push_back(per_trace(*t));
    return Median(values);
  };
  auto mean_of = [&](auto&& per_trace) {
    std::vector<double> values;
    for (const LayerTrace* t : traces) values.push_back(per_trace(*t));
    return Mean(values);
  };

  // Per-report calls in ns per report, per-round calls summed over the
  // stage's rounds; medians over the traced protocol runs.
  for (size_t s = 0; s < kNumStages; ++s) {
    std::string stage = kStageNames[s];
    auto per_report = [&](auto&& numerator) {
      return median_of([&](const LayerTrace& t) {
        const StageTotals& st = t.stages[s];
        return st.reports > 0 ? numerator(st) / st.reports : 0.0;
      });
    };
    auto per_round_us = [&](double StageTotals::*field) {
      return median_of(
          [&](const LayerTrace& t) { return t.stages[s].*field / 1e3; });
    };
    AddMetric(metrics, "protocol.context_build_us." + stage,
              per_round_us(&StageTotals::context_build_ns), "us");
    AddMetric(metrics, "protocol.answer_ns." + stage,
              per_report([](const StageTotals& st) { return st.answer_ns; }),
              "ns");
    if (s == kPc || s == kPd) {
      AddMetric(metrics, "distance.match_ns." + stage,
                per_report([](const StageTotals& st) { return st.match_ns; }),
                "ns");
    }
    AddMetric(metrics, "ldp.perturb_ns." + stage,
              per_report([](const StageTotals& st) {
                return st.answer_ns - st.match_ns;
              }),
              "ns");
    AddMetric(metrics, "protocol.encode_ns." + stage,
              per_report([](const StageTotals& st) { return st.encode_ns; }),
              "ns");
    AddMetric(metrics, "protocol.bytes_per_report." + stage,
              per_report([](const StageTotals& st) {
                return static_cast<double>(st.encoded_bytes);
              }),
              "B");
    AddMetric(metrics, "net.frame_encode_ns." + stage,
              per_report(
                  [](const StageTotals& st) { return st.frame_encode_ns; }),
              "ns");
    AddMetric(metrics, "net.frame_decode_ns." + stage,
              per_report(
                  [](const StageTotals& st) { return st.frame_decode_ns; }),
              "ns");
    AddMetric(metrics, "collector.ingest_ns." + stage,
              per_report([](const StageTotals& st) { return st.ingest_ns; }),
              "ns");
    AddMetric(metrics, "collector.debias_us." + stage,
              per_round_us(&StageTotals::debias_ns), "us");
  }
  AddMetric(metrics, "collector.drive_self_ms", Median(self_ms), "ms");

  auto server_median = [&](double ServerTimes::*field) {
    std::vector<double> values;
    for (const FleetRuns& r : runs) {
      for (const ServerTimes& t : r.server) values.push_back(t.*field / 1e3);
    }
    return Median(values);
  };
  AddMetric(metrics, "core.server_us.finish_length",
            server_median(&ServerTimes::finish_length), "us");
  AddMetric(metrics, "core.server_us.finish_subshapes",
            server_median(&ServerTimes::finish_subshapes), "us");
  AddMetric(metrics, "core.server_us.begin_trie_level",
            server_median(&ServerTimes::begin_trie_level), "us");
  AddMetric(metrics, "core.server_us.finish_trie_level",
            server_median(&ServerTimes::finish_trie_level), "us");
  AddMetric(metrics, "core.server_us.begin_refinement",
            server_median(&ServerTimes::begin_refinement), "us");
  AddMetric(metrics, "core.server_us.finish",
            server_median(&ServerTimes::finish), "us");

  // Inline runner: its untimed rate, and the traced run's wall against
  // the untimed one. The traced run also makes calls the driver never
  // makes (the match probe and the framing); their time is not tracing
  // cost, so it is taken out.
  std::vector<double> inline_rates;
  double plain_wall = 0, traced_wall = 0;
  for (const FleetRuns& r : runs) {
    std::vector<double> rates, plain, traced;
    for (const InlineRun& run : r.plain) {
      rates.push_back(run.tally.accepted / run.wall_s);
      plain.push_back(run.wall_s);
    }
    for (size_t i = 0; i < r.traced.size() && i < r.traces.size(); ++i) {
      double probe_ns = 0;
      for (const StageTotals& st : r.traces[i].stages) {
        probe_ns += st.match_ns + st.frame_encode_ns + st.frame_decode_ns;
      }
      traced.push_back(r.traced[i].wall_s - probe_ns / 1e9);
    }
    inline_rates.push_back(Median(rates));
    plain_wall += Median(plain);
    traced_wall += Median(traced);
  }
  double inline_accepted_per_s = MixRate(inline_rates);
  AddMetric(metrics, "inline.accepted_per_s", inline_accepted_per_s, "1/s");
  AddMetric(metrics, "trace_overhead_share",
            plain_wall > 0 ? traced_wall / plain_wall - 1.0 : 0.0, "share");
  AddMetric(metrics, "collector.parallel_efficiency",
            inline_accepted_per_s > 0
                ? accepted_per_s / (static_cast<double>(plan.workers) *
                                    inline_accepted_per_s)
                : 0.0,
            "ratio");

  // Round and batch-ingest times from the untimed driver calls (the core
  // driver reports none; its inline runner's DriveProtocol stands in).
  std::vector<RoundSummary> summaries;
  for (const FleetRuns& r : runs) {
    if (plan.w.driver == Driver::kCore) {
      for (const InlineRun& run : r.plain) {
        summaries.push_back(Summarize(run.metrics));
      }
    } else {
      for (const Call& call : r.calls) {
        if (call.ok) summaries.push_back(Summarize(call.metrics));
      }
    }
  }
  for (size_t s = 0; s < kNumStages; ++s) {
    std::vector<double> values;
    for (const RoundSummary& r : summaries) values.push_back(r.round_ms[s]);
    AddMetric(metrics, std::string("collector.round_ms.") + kStageNames[s],
              Median(values), "ms");
  }
  std::vector<double> p50, p99;
  for (const RoundSummary& r : summaries) {
    p50.push_back(r.ingest_p50_us);
    p99.push_back(r.ingest_p99_us);
  }
  AddMetric(metrics, "collector.ingest_batch_p50_us", Median(p50), "us");
  AddMetric(metrics, "collector.ingest_batch_p99_us", Median(p99), "us");

  // Client-observed stage latency and upload bytes come from the
  // LoadgenOutcome: 0 on the in-process workloads, which have no loadgen.
  std::vector<double> stage_p50[kNumStages], up_bytes;
  for (const FleetRuns& r : runs) {
    for (const Call& call : r.calls) {
      if (!call.ok || !call.loadgen) continue;
      double sums[kNumStages] = {};
      for (const auto& lat : call.loadgen->stage_latency) {
        sums[StageOf(lat.stage)] += lat.p50_ns / 1e6;
      }
      for (size_t s = 0; s < kNumStages; ++s) stage_p50[s].push_back(sums[s]);
      up_bytes.push_back(static_cast<double>(call.loadgen->bytes_up) /
                         std::max<size_t>(call.loadgen->reports_sent, 1));
    }
  }
  for (size_t s = 0; s < kNumStages; ++s) {
    AddMetric(metrics,
              std::string("net.loadgen_stage_p50_ms.") + kStageNames[s],
              Median(stage_p50[s]), "ms");
  }
  AddMetric(metrics, "net.bytes_up_per_report", Median(up_bytes), "B");

  AddMetric(metrics, "setup.synth_us_per_word", Median(synth_us_per_word),
            "us");

  // Input properties, averaged over the run's fleets.
  std::vector<double> distinct;
  for (const FleetRuns& r : runs) {
    distinct.push_back(static_cast<double>(r.distinct_words) /
                       plan.w.pool_words);
  }
  AddMetric(metrics, "input.distinct_word_share", Mean(distinct), "share");
  for (size_t s = 0; s < kNumStages; ++s) {
    AddMetric(metrics, std::string("input.users.") + kStageNames[s],
              mean_of([&](const LayerTrace& t) {
                return static_cast<double>(t.stages[s].users);
              }),
              "count");
  }
  AddMetric(metrics, "input.ell_s",
            mean_of([](const LayerTrace& t) {
              return static_cast<double>(t.stages[kPc].rounds);
            }),
            "count");
  AddMetric(metrics, "input.pc_candidates_per_level",
            mean_of([](const LayerTrace& t) {
              const StageTotals& pc_totals = t.stages[kPc];
              return pc_totals.rounds > 0
                         ? static_cast<double>(pc_totals.candidates) /
                               pc_totals.rounds
                         : 0.0;
            }),
            "count");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  Plan plan;
  plan.w = *workload;
  auto config = pc::GeneratedDatasetConfig(plan.w.dataset);
  auto classes = pc::GeneratedNumClasses(plan.w.dataset);
  if (!config.ok() || !classes.ok()) {
    std::fprintf(stderr, "bad dataset %s\n", plan.w.dataset);
    return 1;
  }
  plan.config = *config;
  plan.config.num_classes = plan.w.classify ? *classes : 0;
  if (plan.w.pool_words % static_cast<size_t>(*classes) != 0) {
    std::fprintf(stderr, "pool size must tile the class labels\n");
    return 1;
  }

  // Threads plus connections never exceed nproc. The streaming
  // coordinator runs T pool workers and ceil(T/2) drainers; the socket
  // pair runs an event loop, one drainer and C loadgen connections.
  size_t nproc = Nproc();
  switch (plan.w.driver) {
    case Driver::kCoordinator:
      while ((plan.workers + 1) + (plan.workers + 2) / 2 <= nproc) {
        ++plan.workers;
      }
      break;
    case Driver::kCore:
      plan.workers = 1;
      break;
    case Driver::kSocket:
      plan.connections = nproc > 4 ? 2 : std::max<size_t>(1, nproc - 2);
      plan.workers = plan.connections;
      break;
  }

  std::optional<privshape::ThreadPool> pool;
  if (plan.w.driver == Driver::kCoordinator) pool.emplace(plan.workers);
  auto call_driver = [&](const Fleet& f) {
    switch (plan.w.driver) {
      case Driver::kCoordinator:
        return RunCoordinator(f, &*pool);
      case Driver::kCore:
        return RunCore(plan, f);
      case Driver::kSocket:
        break;
    }
    return RunSocket(plan, f);
  };

  // Each fleet gets an equal share of the run's budget; a traced run
  // splits it again between the driver, the untimed and the traced
  // inline runner.
  const size_t fleets = plan.w.fleets;
  const size_t setup_repeats = std::max<size_t>(1, kSetupRepeats / fleets);
  const size_t min_calls = std::max<size_t>(1, kMinCalls / fleets);
  const double budget = args.seconds / fleets / (args.trace ? 3 : 1);
  auto repeat = [&](auto&& body) {
    auto until = Clock::now() + std::chrono::duration<double>(budget);
    for (size_t n = 0; n < min_calls || Clock::now() < until; ++n) {
      if (!body()) break;
    }
  };

  Ledger ledger;
  std::vector<double> setup_s, synth_us_per_word;
  std::vector<FleetRuns> runs(fleets);
  std::vector<uint64_t> fleet_seeds;
  JsonValue first_shapes = JsonValue::Null();
  for (size_t i = 0; i < fleets; ++i) {
    Fleet f;
    f.config = plan.config;
    f.config.seed =
        fleets == 1 ? args.seed : privshape::DeriveSeed(args.seed, i);
    fleet_seeds.push_back(f.config.seed);

    // --- Set-up: word-pool synthesis, fleet build, daemon Start. -------
    for (size_t rep = 0; rep < setup_repeats; ++rep) {
      auto t0 = Clock::now();
      Status built = BuildInputs(plan.w, &f);
      if (built.ok() && plan.w.driver == Driver::kSocket) {
        pc::CollectorDaemon daemon(f.config, plan.w.users,
                                   SocketOptions(plan));
        built = daemon.Start();
      }
      if (!built.ok()) {
        std::fprintf(stderr, "setup: %s\n", built.ToString().c_str());
        return 1;
      }
      setup_s.push_back(Seconds(t0, Clock::now()));
      synth_us_per_word.push_back(f.synth_seconds * 1e6 / plan.w.pool_words);
    }
    Status referenced = ComputeReference(plan, &f);
    if (!referenced.ok()) {
      std::fprintf(stderr, "reference: %s\n", referenced.ToString().c_str());
      return 1;
    }
    if (i == 0) first_shapes = pc::ShapesJson(f.reference, plan.w.classify);

    FleetRuns& r = runs[i];
    r.distinct_words = std::set<Sequence>(f.pool.begin(), f.pool.end()).size();
    r.ell_s = f.reference.frequent_length;

    // --- End to end: driver calls until the budget is spent. ------------
    repeat([&] {
      r.calls.push_back(call_driver(f));
      const Call& call = r.calls.back();
      ledger.Add(call.asked, call.accepted, call.ok, "driver", call.error);
      return call.ok;
    });
    if (!args.trace) continue;

    // --- Inline runner, untimed then traced, and the server replay. -----
    auto check_inline = [&](const InlineRun& run, const char* what) {
      bool ok = run.result.ok() && pc::SameShapes(*run.result, f.reference);
      ledger.Add(run.tally.asked, run.tally.accepted, ok, what,
                 run.result.ok() ? "inline shapes differ from the reference"
                                 : run.result.status().ToString());
      return ok;
    };
    repeat([&] {
      r.plain.push_back(RunInline(plan, f, nullptr));
      return check_inline(r.plain.back(), "inline");
    });
    repeat([&] {
      r.traces.emplace_back();
      r.traced.push_back(RunInline(plan, f, &r.traces.back()));
      if (!check_inline(r.traced.back(), "traced")) return false;
      ServerTimes times;
      auto replay = ReplayServer(f.config, r.traces.back(), &times);
      bool ok = replay.ok() && pc::SameShapes(*replay, f.reference);
      ledger.Add(0, 0, ok, "server replay",
                 replay.ok() ? "replayed shapes differ"
                             : replay.status().ToString());
      r.server.push_back(times);
      return ok;
    });
  }

  // A mix of fleets is summarized per fleet first (median over its
  // calls), then over fleets that each served the same users.
  std::vector<double> fleet_rates, fleet_cpu;
  uint64_t asked = 0, accepted = 0;
  for (const FleetRuns& r : runs) {
    std::vector<double> cpu;
    for (const Call& c : r.calls) {
      asked += c.asked;
      if (!c.ok) continue;
      accepted += c.accepted;
      cpu.push_back(c.cpu_s * 1e6 / std::max<uint64_t>(c.accepted, 1));
    }
    fleet_rates.push_back(Median(r.Rates()));
    fleet_cpu.push_back(Median(cpu));
  }
  double accepted_per_s = MixRate(fleet_rates);

  JsonValue metrics = JsonValue::Object();
  if (!args.trace) {
    AddMetric(&metrics, "accepted_per_s", accepted_per_s, "1/s");
    AddMetric(&metrics, "cpu_us_per_report", Mean(fleet_cpu), "us");
    AddMetric(&metrics, "setup_s", Median(setup_s), "s");
    AddMetric(&metrics, "peak_rss_mb", PeakRssMb(), "MB");
    AddMetric(&metrics, "accepted_share",
              asked > 0 ? static_cast<double>(accepted) / asked : 0.0,
              "share");
  } else {
    AddLayerMetrics(plan, runs, accepted_per_s, synth_us_per_word, &metrics);
    if (!args.spans.empty() && !runs.front().traces.empty()) {
      std::ofstream out(args.spans);
      out << "{\"traceEvents\":[\n" << runs.front().traces.front().spans
          << "\n]}\n";
    }
  }

  // Stamp: every result names its host, build and inputs.
  JsonValue seeds = JsonValue::Array(), ell_s = JsonValue::Array();
  size_t calls = 0;
  for (size_t i = 0; i < fleets; ++i) {
    seeds.Push(JsonValue::Uint(fleet_seeds[i]));
    ell_s.Push(JsonValue::Int(runs[i].ell_s));
    calls += runs[i].calls.size();
  }
  JsonValue meta = JsonValue::Object();
  meta.Set("workload", JsonValue::Str(plan.w.name));
  meta.Set("seed", JsonValue::Uint(args.seed));
  meta.Set("seconds", JsonValue::Num(args.seconds));
  meta.Set("trace", JsonValue::Bool(args.trace));
  meta.Set("nproc", JsonValue::Uint(nproc));
  meta.Set("workers", JsonValue::Uint(plan.workers));
  meta.Set("connections", JsonValue::Uint(plan.connections));
  meta.Set("compiler", JsonValue::Str(PERFBENCH_COMPILER));
  meta.Set("flags", JsonValue::Str(PERFBENCH_FLAGS));
  meta.Set("build_type", JsonValue::Str(PERFBENCH_BUILD_TYPE));
  meta.Set("simd", JsonValue::Str(privshape::simd::kLevelName));
  meta.Set("revision", JsonValue::Str(args.revision));
  meta.Set("users", JsonValue::Uint(plan.w.users));
  meta.Set("pool_words", JsonValue::Uint(plan.w.pool_words));
  meta.Set("fleet_seeds", std::move(seeds));
  meta.Set("ell_s", std::move(ell_s));
  meta.Set("driver_calls", JsonValue::Uint(calls));
  std::printf("perfbench-meta %s\n", meta.Dump().c_str());
  std::printf("perfbench-shapes %s\n", first_shapes.Dump().c_str());

  JsonValue result = JsonValue::Object();
  result.Set("correct", JsonValue::Bool(ledger.correct));
  result.Set("attempted",
             JsonValue::Uint(std::max<uint64_t>(ledger.attempted, 1)));
  result.Set("failed", JsonValue::Uint(ledger.failed));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
