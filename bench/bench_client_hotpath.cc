/// \file
/// Per-report answer-path microbenchmark: reports/sec for each protocol
/// stage (P_a..P_d) on a single thread, through the one client path —
/// ClientSession answering a shared RoundContext with per-worker scratch
/// and batched encoding (zero allocation per report) — plus the per-word
/// memo on and off, and the hot-path kernels against their scalar
/// references. Writes BENCH_hotpath.json — the client hot path's perf
/// trajectory per PR.
///
///   bench_client_hotpath --users 20000 --trials 3 --json BENCH_hotpath.json
///
/// The floor every report shares is per-user privacy randomness: an
/// mt19937_64 stream seeded with DeriveSeed(seed, user), pinned by the
/// byte-identical determinism contract. Before this repo's LazyMt64 the
/// eager engine cost ~2.4us/user in construction plus first twist; the
/// lazy engine (same bit stream) brings that to ~0.4us for one lone
/// session, and the stage loops here build sessions one at a time. The
/// `seed` kernel record measures that floor against lockstep seeding in
/// blocks, which is how the answer loops of the library build their
/// sessions.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "collector/client_fleet.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/em_selection.h"
#include "distance/candidate_table.h"
#include "ldp/exponential.h"
#include "ldp/grr.h"
#include "ldp/unary_encoding.h"
#include "protocol/messages.h"
#include "protocol/round_context.h"
#include "protocol/session.h"

#ifndef PRIVSHAPE_BENCH_FLAGS
#define PRIVSHAPE_BENCH_FLAGS "(unknown)"
#endif

namespace privshape {
namespace {

using bench::ExperimentScale;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr uint64_t kSessionSeedBase = 0x40117;

// --- Benchmark scaffolding ---------------------------------------------

/// One benchmarked stage: its name and the round's shared context.
struct Stage {
  std::string name;
  proto::RoundContext context;
};

struct PathResult {
  double seconds = 0.0;
  double rate = 0.0;
  size_t bytes = 0;
};

proto::ClientSession SessionFor(const std::vector<Sequence>& words,
                                size_t user) {
  return proto::ClientSession(words[user % words.size()],
                              DeriveSeed(kSessionSeedBase, user));
}

PathResult RunContextPath(const Stage& stage,
                          const std::vector<Sequence>& words, size_t users) {
  PathResult out;
  proto::AnswerScratch scratch;
  proto::ReportBatch batch;
  batch.Reserve(256);
  double start = Now();
  for (size_t u = 0; u < users; ++u) {
    proto::ClientSession session = SessionFor(words, u);
    (void)session.AnswerTo(stage.context, &scratch, &batch);
    if (batch.size() >= 256) {
      out.bytes += batch.bytes();
      batch.Clear();
    }
  }
  out.bytes += batch.bytes();
  out.seconds = Now() - start;
  out.rate = out.seconds > 0 ? static_cast<double>(users) / out.seconds : 0;
  return out;
}

// --- The per-word memo, on and off -------------------------------------
//
// The context path computes the word-dependent half of a P_c / P_d answer
// once per distinct word (proto::AnswerMemo). `nomemo` is that path with
// the memo taken out, spelled out per user as the library answered before
// it: match -> scores -> EM Select for P_c, closest candidate -> GRR for
// P_d, drawing from the same per-user stream into the same batch encoding,
// so its reports must equal the context path's byte for byte. Both run on
// the tiled pool (heavy repetition, the input PrivShape is built for) and
// on all-distinct words, where every answer misses the memo and, past its
// cap, also fails to cache: the memo's worst case.

Status AnswerNoMemo(const proto::RoundContext& ctx, const Sequence& word,
                    Rng* rng, proto::AnswerScratch* s) {
  proto::Report& out = s->report;
  if (ctx.kind() == proto::ReportKind::kSelection) {
    ctx.table().MatchInto(word, *ctx.distance(), /*prefix_compare=*/true,
                          &s->table, &s->distances);
    ldp::ScoresFromDistancesInto(s->distances, &s->scores);
    auto pick = ctx.em()->Select(s->scores, rng, &s->probs);
    if (!pick.ok()) return pick.status();
    out.kind = proto::ReportKind::kSelection;
    out.level = ctx.level();
    out.value = *pick;
  } else {
    size_t best = ctx.table().Closest(word, *ctx.distance(), &s->table);
    out.kind = proto::ReportKind::kRefinement;
    out.level = 0;
    out.value = ctx.grr()->PerturbValue(best, rng);
  }
  out.bits.clear();
  return Status::Ok();
}

PathResult RunNoMemoPath(const Stage& stage,
                         const std::vector<Sequence>& words, size_t users) {
  PathResult out;
  proto::AnswerScratch scratch;
  proto::ReportBatch batch;
  batch.Reserve(256);
  double start = Now();
  for (size_t u = 0; u < users; ++u) {
    // The same per-user setup a session costs: a word copy and an engine.
    Sequence word = words[u % words.size()];
    Rng rng(DeriveSeed(kSessionSeedBase, u));
    if (AnswerNoMemo(stage.context, word, &rng, &scratch).ok()) {
      batch.Append(scratch.report);
    }
    if (batch.size() >= 256) {
      out.bytes += batch.bytes();
      batch.Clear();
    }
  }
  out.bytes += batch.bytes();
  out.seconds = Now() - start;
  out.rate = out.seconds > 0 ? static_cast<double>(users) / out.seconds : 0;
  return out;
}

/// Byte-identity check of the memo: one reused scratch (memo on) against
/// `nomemo` for the first `sample` users, which should pass the memo's
/// cap on the all-distinct population.
bool MemoAgrees(const Stage& stage, const std::vector<Sequence>& words,
                size_t sample) {
  proto::AnswerScratch memo_scratch, plain_scratch;
  for (size_t u = 0; u < sample; ++u) {
    proto::ClientSession session = SessionFor(words, u);
    proto::ReportBatch memoized, plain;
    Status answered = session.AnswerTo(stage.context, &memo_scratch,
                                       &memoized);
    Rng rng(DeriveSeed(kSessionSeedBase, u));
    Status reference = AnswerNoMemo(stage.context, words[u % words.size()],
                                    &rng, &plain_scratch);
    if (answered.ok() != reference.ok()) return false;
    if (!answered.ok()) continue;
    plain.Append(plain_scratch.report);
    if (memoized.size() != 1 || memoized.view(0) != plain.view(0)) {
      return false;
    }
  }
  return true;
}

/// `count` distinct words over the t=4 alphabet, 10 symbols long with no
/// symbol repeated back to back (as Compressive SAX emits them): word u
/// spells u in a mixed radix of 4 then 3 (the 3 symbols that differ from
/// the previous one). 4 * 3^9 = 78732 words before they wrap.
std::vector<Sequence> DistinctWords(size_t count) {
  constexpr size_t kLength = 10;
  std::vector<Sequence> out;
  out.reserve(count);
  for (size_t u = 0; u < count; ++u) {
    size_t rest = u;
    Sequence word;
    word.push_back(static_cast<Symbol>(rest % 4));
    rest /= 4;
    for (size_t i = 1; i < kLength; ++i) {
      Symbol step = static_cast<Symbol>(1 + rest % 3);
      rest /= 3;
      word.push_back(static_cast<Symbol>((word.back() + step) % 4));
    }
    out.push_back(std::move(word));
  }
  return out;
}

// --- Per-kernel micro-records ------------------------------------------
//
// The stage benchmarks above measure whole reports; these isolate the
// four kernels the SIMD work targets — DTW/SED matching against the SoA
// candidate table, the batched OUE bit fill, and the two-word GRR draw —
// each against the scalar per-candidate / per-cell path it replaced.
// Both variants live in every build (the scalar reference is
// always-built), so one binary yields the scalar-vs-SIMD speedup.

struct KernelResult {
  double seconds = 0.0;
  double rate = 0.0;  ///< ops per second, best of trials
};

template <typename Body>
KernelResult MeasureKernel(size_t ops, int trials, Body&& body) {
  KernelResult best;
  for (int trial = 0; trial < std::max(trials, 1); ++trial) {
    double start = Now();
    for (size_t i = 0; i < ops; ++i) body(i);
    double seconds = Now() - start;
    double rate = seconds > 0 ? static_cast<double>(ops) / seconds : 0.0;
    if (rate > best.rate) best = KernelResult{seconds, rate};
  }
  return best;
}

int Main(int argc, char** argv) {
  CliArgs args(argc, argv);
  ExperimentScale scale = bench::ScaleFromArgs(args, /*default_users=*/20000,
                                               /*default_trials=*/3);
  auto json = bench::MaybeJson(args, "BENCH_hotpath.json");
  if (json != nullptr) {
    // Stamp the build so records are never compared across configs
    // (scalar vs SSE2 vs AVX2, different compilers/flags) unnoticed.
#if defined(__clang__)
    json->SetMeta("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    json->SetMeta("compiler", std::string("gcc ") + __VERSION__);
#else
    json->SetMeta("compiler", "unknown");
#endif
    json->SetMeta("cxx_flags", PRIVSHAPE_BENCH_FLAGS);
    json->SetMeta("simd_level", simd::kLevelName);
    json->SetMeta("simd_double_lanes",
                  static_cast<uint64_t>(simd::kDoubleLanes));
    json->SetMeta("nproc", static_cast<uint64_t>(
                               std::thread::hardware_concurrency()));
  }
  const double epsilon = args.GetDouble("epsilon", 4.0);
  const dist::Metric metric = dist::Metric::kSed;  // Trace default

  // A representative word pool: 256 generated Trace-style compressed
  // words (t=4), tiled across the fleet — synthesis cost stays out of the
  // measured loop.
  auto source = collector::GeneratedWordSource("trace", scale.seed);
  if (!source.ok()) {
    bench::PrintTitle("hotpath bench setup failed: " +
                      source.status().ToString());
    return 1;
  }
  std::vector<Sequence> words;
  words.reserve(256);
  for (size_t u = 0; u < 256; ++u) words.push_back((*source)(u));

  // Candidate list for the P_c / P_d stages: paper-default c*k = 9
  // distinct words (P_c matches length-5 prefixes, P_d whole words).
  std::vector<Sequence> candidates;
  for (const Sequence& w : words) {
    Sequence cut(w.begin(),
                 w.begin() + static_cast<long>(std::min<size_t>(w.size(), 5)));
    if (std::find(candidates.begin(), candidates.end(), cut) ==
        candidates.end()) {
      candidates.push_back(cut);
    }
    if (candidates.size() == 9) break;
  }

  proto::CandidateRequest selection_request;
  selection_request.level = 4;
  selection_request.epsilon = epsilon;
  selection_request.candidates = candidates;
  proto::CandidateRequest refine_request;
  refine_request.level = 0;
  refine_request.epsilon = epsilon;
  refine_request.candidates = candidates;

  std::vector<Stage> stages;
  auto add_stage = [&stages](const char* name,
                             Result<proto::RoundContext> context) {
    if (!context.ok()) return false;
    stages.push_back(Stage{name, std::move(*context)});
    return true;
  };
  if (!add_stage("Pa", proto::RoundContext::Length(1, 10, epsilon)) ||
      !add_stage("Pb", proto::RoundContext::SubShape(4, 8, epsilon, false)) ||
      !add_stage("Pc",
                 proto::RoundContext::Selection(selection_request, metric)) ||
      !add_stage("Pd",
                 proto::RoundContext::Refinement(refine_request, metric))) {
    bench::PrintTitle("hotpath bench setup failed: invalid round context");
    return 1;
  }

  bench::PrintTitle("Client answer hot path (" +
                    std::to_string(scale.users) +
                    " reports/stage, single thread)");
  bench::PrintHeader({"stage", "path", "reports/s", "seconds"});

  bool all_identical = true;
  for (const Stage& stage : stages) {
    PathResult best;
    for (int trial = 0; trial < std::max(scale.trials, 1); ++trial) {
      PathResult c = RunContextPath(stage, words, scale.users);
      if (c.rate > best.rate) best = c;
    }
    bench::PrintRow({stage.name, "context", FormatDouble(best.rate, 6),
                     FormatDouble(best.seconds, 4)});
    if (json != nullptr) {
      json->AddRecord("client_hotpath",
                      {{"stage", stage.name},
                       {"path", "context"},
                       {"users", std::to_string(scale.users)},
                       {"metric", dist::MetricName(metric)}},
                      {{"reports_per_sec", best.rate},
                       {"seconds", best.seconds},
                       {"bytes_up", static_cast<double>(best.bytes)}});
    }
  }

  // Memo on (the context path) vs off, on repeated and on all-distinct
  // words, for the two stages the memo serves.
  bench::PrintTitle("Per-word memo, on vs off (" +
                    std::to_string(scale.users) + " reports/stage)");
  bench::PrintHeader({"stage", "words", "memo on/s", "memo off/s",
                      "on/off", "identical"});
  const std::vector<Sequence> distinct = DistinctWords(scale.users);
  for (const Stage& stage : stages) {
    if (stage.name != "Pc" && stage.name != "Pd") continue;
    for (bool all_distinct : {false, true}) {
      const std::vector<Sequence>& pool = all_distinct ? distinct : words;
      bool identical = MemoAgrees(stage, pool, /*sample=*/3000);
      all_identical = all_identical && identical;
      PathResult on, off;
      for (int trial = 0; trial < std::max(scale.trials, 1); ++trial) {
        PathResult c = RunContextPath(stage, pool, scale.users);
        PathResult n = RunNoMemoPath(stage, pool, scale.users);
        if (c.rate > on.rate) on = c;
        if (n.rate > off.rate) off = n;
      }
      double gain = off.rate > 0 ? on.rate / off.rate : 0.0;
      const char* label = all_distinct ? "distinct" : "tiled";
      bench::PrintRow({stage.name, label, FormatDouble(on.rate, 6),
                       FormatDouble(off.rate, 6), FormatDouble(gain, 3),
                       identical ? "yes" : "NO"});
      if (json == nullptr) continue;
      auto record = [&](const char* path, const PathResult& p, double s) {
        std::vector<std::pair<std::string, std::string>> params = {
            {"stage", stage.name},
            {"path", path},
            {"users", std::to_string(scale.users)},
            {"metric", dist::MetricName(metric)}};
        // The tiled context record is the stage loop's; the distinct
        // population is told apart by its own parameter.
        if (all_distinct) params.emplace_back("words", "distinct");
        json->AddRecord("client_hotpath", params,
                        {{"reports_per_sec", p.rate},
                         {"seconds", p.seconds},
                         {"speedup_vs_nomemo", s},
                         {"bytes_up", static_cast<double>(p.bytes)}});
      };
      if (all_distinct) record("context", on, gain);
      record("nomemo", off, 1.0);
    }
  }

  // Kernel micro-records. `sink` folds every result into a value the
  // optimizer must keep, so the measured loops cannot be dead-code
  // eliminated.
  bench::PrintTitle(std::string("Per-kernel micro-records (simd level: ") +
                    simd::kLevelName + ", " +
                    std::to_string(simd::kDoubleLanes) + " double lanes)");
  bench::PrintHeader({"kernel", "path", "ops/s", "seconds", "speedup"});
  double sink = 0.0;

  dist::CandidateTable table = dist::CandidateTable::Build(candidates);
  auto dtw = dist::MakeDistance(dist::Metric::kDtw);
  auto sed = dist::MakeDistance(dist::Metric::kSed);
  dist::TableScratch table_scratch;
  dist::DtwScratch dtw_scratch;
  std::vector<double> dists;

  const size_t cells = candidates.size() * 3;  // P_e grid, 3 classes
  auto oue = ldp::UnaryEncoding::Create(
      cells, epsilon, ldp::UnaryEncoding::Variant::kOptimized);
  auto grr = ldp::Grr::Create(candidates.size(), epsilon);
  if (!oue.ok() || !grr.ok()) {
    bench::PrintTitle("kernel bench setup failed");
    return 1;
  }
  Rng kernel_rng(DeriveSeed(kSessionSeedBase, 0x5EED));
  std::vector<uint64_t> word_buf;
  std::vector<uint8_t> bit_buf;

  struct Kernel {
    std::string name;
    size_t ops;
    std::function<void(size_t)> scalar;
    std::function<void(size_t)> simd;
  };
  std::vector<Kernel> kernels;
  kernels.push_back(Kernel{
      "dtw_vs_candidates", scale.users,
      [&](size_t i) {
        core::MatchDistancesInto(words[i % words.size()], candidates,
                                 /*prefix_compare=*/false, *dtw,
                                 &dtw_scratch, &dists);
        sink += dists[0];
      },
      [&](size_t i) {
        table.MatchInto(words[i % words.size()], *dtw,
                        /*prefix_compare=*/false, &table_scratch, &dists);
        sink += dists[0];
      }});
  kernels.push_back(Kernel{
      "sed_vs_candidates", scale.users,
      [&](size_t i) {
        core::MatchDistancesInto(words[i % words.size()], candidates,
                                 /*prefix_compare=*/false, *sed,
                                 &dtw_scratch, &dists);
        sink += dists[0];
      },
      [&](size_t i) {
        table.MatchInto(words[i % words.size()], *sed,
                        /*prefix_compare=*/false, &table_scratch, &dists);
        sink += dists[0];
      }});
  kernels.push_back(Kernel{
      "oue_bit_fill", scale.users,
      // Scalar reference: the pre-batching per-cell Bernoulli loop
      // (one independent draw per cell against p or q).
      [&, cells](size_t i) {
        size_t value = i % cells;
        for (size_t cell = 0; cell < cells; ++cell) {
          sink += kernel_rng.Bernoulli(cell == value ? oue->p() : oue->q())
                      ? 1.0
                      : 0.0;
        }
      },
      [&, cells](size_t i) {
        oue->EncodeInto(i % cells, &kernel_rng, &word_buf, &bit_buf);
        sink += bit_buf[0];
      }});
  const size_t grr_domain = candidates.size();
  kernels.push_back(Kernel{
      "grr_draw", scale.users * 8,
      // Scalar reference: the pre-batching keep-or-resample draw
      // (Bernoulli(p), then a bounded index on flip).
      [&, grr_domain](size_t i) {
        size_t value = i % grr_domain;
        size_t out;
        if (kernel_rng.Bernoulli(grr->p())) {
          out = value;
        } else {
          size_t r = kernel_rng.Index(grr_domain - 1);
          out = r >= value ? r + 1 : r;
        }
        sink += static_cast<double>(out);
      },
      [&, grr_domain](size_t i) {
        sink += static_cast<double>(
            grr->PerturbValue(i % grr_domain, &kernel_rng));
      }});

  double best_kernel_speedup = 0.0;
  for (const Kernel& kernel : kernels) {
    KernelResult scalar = MeasureKernel(kernel.ops, scale.trials,
                                        kernel.scalar);
    KernelResult simd = MeasureKernel(kernel.ops, scale.trials, kernel.simd);
    double speedup = scalar.rate > 0 ? simd.rate / scalar.rate : 0.0;
    if (kernel.name == "dtw_vs_candidates" || kernel.name == "oue_bit_fill") {
      best_kernel_speedup = std::max(best_kernel_speedup, speedup);
    }
    bench::PrintRow({kernel.name, "scalar", FormatDouble(scalar.rate, 6),
                     FormatDouble(scalar.seconds, 4), "1.000"});
    bench::PrintRow({kernel.name, "simd", FormatDouble(simd.rate, 6),
                     FormatDouble(simd.seconds, 4),
                     FormatDouble(speedup, 3)});
    if (json != nullptr) {
      auto record = [&](const char* path, const KernelResult& r, double s) {
        json->AddRecord("hotpath_kernel",
                        {{"kernel", kernel.name},
                         {"path", path},
                         {"ops", std::to_string(kernel.ops)}},
                        {{"ops_per_sec", r.rate},
                         {"seconds", r.seconds},
                         {"speedup_vs_scalar", s}});
      };
      record("scalar", scalar, 1.0);
      record("simd", simd, speedup);
    }
  }
  // Seeding micro-record: the per-user engine seeding every report pays
  // before its first draw — each engine seeding its own 157-word prefix
  // lazily (a serial multiply chain) vs ClientFleet's blocks of
  // kLockstepLanes engines seeded together by LazyMt64::SeedLockstep.
  // Both build the engine in the same slot and take its first output;
  // the outputs must equal std::mt19937_64's.
  const size_t seed_users = scale.users;
  constexpr size_t kLanes = LazyMt64::kLockstepLanes;
  std::optional<LazyMt64> lanes[kLanes];
  std::vector<uint64_t> lazy_first(seed_users), lockstep_first(seed_users);
  KernelResult lazy_seed =
      MeasureKernel(seed_users, scale.trials, [&](size_t u) {
        LazyMt64& engine =
            lanes[u % kLanes].emplace(DeriveSeed(kSessionSeedBase, u));
        lazy_first[u] = engine();
      });
  KernelResult lockstep_seed =
      MeasureKernel(seed_users, scale.trials, [&](size_t u) {
        if (u % kLanes == 0) {
          size_t count = std::min(kLanes, seed_users - u);
          LazyMt64* block[kLanes];
          for (size_t j = 0; j < count; ++j) {
            block[j] = &lanes[j].emplace(DeriveSeed(kSessionSeedBase, u + j));
          }
          auto engine_at = [&block](size_t j) { return block[j]; };
          if (!LazyMt64::SeedLockstep(count, engine_at).ok()) return;
        }
        lockstep_first[u] = (*lanes[u % kLanes])();
      });
  bool seed_identical = lazy_first == lockstep_first;
  for (size_t u = 0; u < seed_users && seed_identical; u += 97) {
    seed_identical = std::mt19937_64(DeriveSeed(kSessionSeedBase, u))() ==
                     lockstep_first[u];
  }
  all_identical = all_identical && seed_identical;
  double seed_speedup =
      lazy_seed.rate > 0 ? lockstep_seed.rate / lazy_seed.rate : 0.0;
  auto ns_per_user = [](const KernelResult& r) {
    return r.rate > 0 ? 1e9 / r.rate : 0.0;
  };
  bench::PrintRow({"seed", "lazy", FormatDouble(lazy_seed.rate, 6),
                   FormatDouble(lazy_seed.seconds, 4), "1.000"});
  bench::PrintRow({"seed", "lockstep", FormatDouble(lockstep_seed.rate, 6),
                   FormatDouble(lockstep_seed.seconds, 4),
                   FormatDouble(seed_speedup, 3)});
  if (json != nullptr) {
    auto record = [&](const char* path, const KernelResult& r, double s) {
      json->AddRecord("hotpath_kernel",
                      {{"kernel", "seed"},
                       {"path", path},
                       {"ops", std::to_string(seed_users)}},
                      {{"ops_per_sec", r.rate},
                       {"seconds", r.seconds},
                       {"ns_per_user", ns_per_user(r)},
                       {"speedup_vs_lazy", s}});
    };
    record("lazy", lazy_seed, 1.0);
    record("lockstep", lockstep_seed, seed_speedup);
  }

  // Keep `sink` observable without polluting the tables.
  volatile double sink_guard = sink;
  (void)sink_guard;

  if (!all_identical) {
    bench::PrintTitle(
        "FAIL: the memo changed a report's bytes, or lockstep seeding "
        "changed an engine's stream");
    return 1;
  }
  if (simd::kLevel > 0 && best_kernel_speedup < 2.0) {
    bench::PrintTitle("WARNING: best SIMD kernel speedup " +
                      FormatDouble(best_kernel_speedup, 3) +
                      "x (dtw/oue) is below the 2x acceptance bar");
  }
  if (json != nullptr && !json->Flush()) {
    bench::PrintTitle("failed to write the --json baseline file");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace privshape

int main(int argc, char** argv) { return privshape::Main(argc, argv); }
