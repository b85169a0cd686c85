/// \file
/// Per-report answer-path microbenchmark: reports/sec for each protocol
/// stage (P_a..P_d) on a single thread, across three client paths:
///
///   legacy  — the pre-RoundContext per-call implementation, faithfully
///             reconstructed here (the library no longer contains it):
///             re-decode the broadcast request, re-create the GRR/EM
///             mechanism and the distance object, copy a prefix Sequence
///             per candidate, allocate two DP rows per distance, allocate
///             the distance/score/probability vectors per report.
///   string  — today's string-decoding ClientSession entry points (thin
///             wrappers over the shared hot path; still rebuild the
///             round context per call).
///   context — the shared-RoundContext hot path: decode + mechanism
///             construction once per round, per-worker scratch, batched
///             encoding; zero allocation per report.
///
/// All three paths draw identical randomness and must emit byte-identical
/// reports per user (checked for a sample each run). Writes
/// BENCH_hotpath.json — the client hot path's perf trajectory per PR.
/// Acceptance gate: context >= 2x legacy on the selection-heavy P_c round.
///
///   bench_client_hotpath --users 20000 --trials 3 --json BENCH_hotpath.json
///
/// The floor every path shares is per-user privacy randomness: an
/// mt19937_64 stream seeded with DeriveSeed(seed, user), pinned by the
/// byte-identical determinism contract. Before this repo's LazyMt64 the
/// eager engine cost ~2.4us/user in construction plus first twist; the
/// lazy engine (same bit stream) brings that to ~0.4us for one lone
/// session, and all three paths here build sessions one at a time, so
/// the gap between them is pure answer-path work. The `seed` kernel
/// record measures that floor against lockstep seeding in blocks, which
/// is how the collector's answer loops build their sessions.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
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
#include "core/rounds.h"
#include "core/subshape.h"
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

// --- The PR-3 client, reconstructed -----------------------------------
//
// Byte-for-byte the draws of today's paths (same helpers, same order),
// with the historical allocation profile: this is the "before" of the
// zero-allocation refactor.

struct LegacyClient {
  Sequence word;
  dist::Metric metric;
  Rng rng;

  /// PR-3 MatchDistances: prefix *copied* into a Sequence per candidate,
  /// every distance call allocating its own DP rows (the public
  /// allocating overloads still do).
  std::vector<double> MatchDistancesLegacy(
      const std::vector<Sequence>& candidates,
      const dist::SequenceDistance& distance) {
    std::vector<double> distances(candidates.size());
    for (size_t cand = 0; cand < candidates.size(); ++cand) {
      const Sequence& shape = candidates[cand];
      if (word.size() > shape.size()) {
        Sequence prefix(word.begin(),
                        word.begin() + static_cast<long>(shape.size()));
        distances[cand] = distance.Distance(prefix, shape);
      } else {
        distances[cand] = distance.Distance(word, shape);
      }
    }
    return distances;
  }

  Result<std::string> AnswerLengthRequest(int ell_low, int ell_high,
                                          double epsilon) {
    size_t domain = static_cast<size_t>(ell_high - ell_low + 1);
    proto::Report report;
    report.kind = proto::ReportKind::kLength;
    if (domain == 1) {
      report.value = 0;
    } else {
      auto grr = ldp::Grr::Create(domain, epsilon);
      if (!grr.ok()) return grr.status();
      report.value =
          core::AnswerLengthValue(word, ell_low, ell_high, *grr, &rng);
    }
    return proto::EncodeReport(report);
  }

  Result<std::string> AnswerSubShapeRequest(int alphabet, int ell_s,
                                            double epsilon,
                                            bool allow_repeats) {
    size_t domain = core::SubShapeDomainSize(alphabet, allow_repeats);
    auto grr = ldp::Grr::Create(domain, epsilon);
    if (!grr.ok()) return grr.status();
    auto [level, value] = core::AnswerSubShapeValue(
        word, ell_s, alphabet, allow_repeats, *grr, &rng);
    proto::Report report;
    report.kind = proto::ReportKind::kSubShape;
    report.level = level;
    report.value = value;
    return proto::EncodeReport(report);
  }

  Result<std::string> AnswerCandidateRequest(const std::string& request) {
    auto decoded = proto::DecodeCandidateRequest(request);
    if (!decoded.ok()) return decoded.status();
    auto em = ldp::ExponentialMechanism::Create(decoded->epsilon);
    if (!em.ok()) return em.status();
    auto distance = dist::MakeDistance(metric);
    std::vector<double> distances =
        MatchDistancesLegacy(decoded->candidates, *distance);
    auto pick = em->Select(ldp::ScoresFromDistances(distances), &rng);
    if (!pick.ok()) return pick.status();
    proto::Report report;
    report.kind = proto::ReportKind::kSelection;
    report.level = decoded->level;
    report.value = *pick;
    return proto::EncodeReport(report);
  }

  Result<std::string> AnswerRefinementRequest(const std::string& request) {
    auto decoded = proto::DecodeCandidateRequest(request);
    if (!decoded.ok()) return decoded.status();
    auto grr = ldp::Grr::Create(
        std::max<size_t>(decoded->candidates.size(), 2), decoded->epsilon);
    if (!grr.ok()) return grr.status();
    auto distance = dist::MakeDistance(metric);
    // PR-3 ClosestCandidate: exhaustive, allocating per distance call.
    double best = std::numeric_limits<double>::infinity();
    size_t best_idx = 0;
    for (size_t i = 0; i < decoded->candidates.size(); ++i) {
      double d = distance->Distance(word, decoded->candidates[i]);
      if (d < best) {
        best = d;
        best_idx = i;
      }
    }
    proto::Report report;
    report.kind = proto::ReportKind::kRefinement;
    report.value = grr->PerturbValue(best_idx, &rng);
    return proto::EncodeReport(report);
  }
};

// --- Benchmark scaffolding ---------------------------------------------

/// One benchmarked stage: the shared context plus how each historical
/// path answers it.
struct Stage {
  std::string name;
  proto::RoundContext context;
  std::function<Result<std::string>(LegacyClient&)> legacy_path;
  std::function<Result<std::string>(proto::ClientSession&)> string_path;
};

struct PathResult {
  double seconds = 0.0;
  double rate = 0.0;
  size_t bytes = 0;
};

proto::ClientSession SessionFor(const std::vector<Sequence>& words,
                                size_t user, dist::Metric metric) {
  return proto::ClientSession(words[user % words.size()], metric,
                              DeriveSeed(kSessionSeedBase, user));
}

LegacyClient LegacyFor(const std::vector<Sequence>& words, size_t user,
                       dist::Metric metric) {
  return LegacyClient{words[user % words.size()], metric,
                      Rng(DeriveSeed(kSessionSeedBase, user))};
}

PathResult RunLegacyPath(const Stage& stage,
                         const std::vector<Sequence>& words, size_t users,
                         dist::Metric metric) {
  PathResult out;
  double start = Now();
  for (size_t u = 0; u < users; ++u) {
    LegacyClient client = LegacyFor(words, u, metric);
    auto wire = stage.legacy_path(client);
    if (wire.ok()) out.bytes += wire->size();
  }
  out.seconds = Now() - start;
  out.rate = out.seconds > 0 ? static_cast<double>(users) / out.seconds : 0;
  return out;
}

PathResult RunStringPath(const Stage& stage,
                         const std::vector<Sequence>& words, size_t users,
                         dist::Metric metric) {
  PathResult out;
  double start = Now();
  for (size_t u = 0; u < users; ++u) {
    proto::ClientSession session = SessionFor(words, u, metric);
    auto wire = stage.string_path(session);
    if (wire.ok()) out.bytes += wire->size();
  }
  out.seconds = Now() - start;
  out.rate = out.seconds > 0 ? static_cast<double>(users) / out.seconds : 0;
  return out;
}

PathResult RunContextPath(const Stage& stage,
                          const std::vector<Sequence>& words, size_t users,
                          dist::Metric metric) {
  PathResult out;
  proto::AnswerScratch scratch;
  proto::ReportBatch batch;
  batch.Reserve(256);
  double start = Now();
  for (size_t u = 0; u < users; ++u) {
    proto::ClientSession session = SessionFor(words, u, metric);
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
                dist::Metric metric, size_t sample) {
  proto::AnswerScratch memo_scratch, plain_scratch;
  for (size_t u = 0; u < sample; ++u) {
    proto::ClientSession session = SessionFor(words, u, metric);
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

/// Byte-identity spot check: all three paths must emit the same wire
/// bytes for the same user.
bool PathsAgree(const Stage& stage, const std::vector<Sequence>& words,
                dist::Metric metric, size_t sample) {
  proto::AnswerScratch scratch;
  for (size_t u = 0; u < sample; ++u) {
    LegacyClient legacy = LegacyFor(words, u, metric);
    proto::ClientSession a = SessionFor(words, u, metric);
    proto::ClientSession b = SessionFor(words, u, metric);
    auto old_wire = stage.legacy_path(legacy);
    auto wire = stage.string_path(a);
    proto::ReportBatch batch;
    Status answered = b.AnswerTo(stage.context, &scratch, &batch);
    if (wire.ok() != answered.ok() || old_wire.ok() != wire.ok()) {
      return false;
    }
    if (!wire.ok()) continue;
    if (*old_wire != *wire) return false;
    if (batch.size() != 1 || batch.view(0) != *wire) return false;
  }
  return true;
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
  std::string selection_wire =
      proto::EncodeCandidateRequest(selection_request);
  proto::CandidateRequest refine_request;
  refine_request.level = 0;
  refine_request.epsilon = epsilon;
  refine_request.candidates = candidates;
  std::string refine_wire = proto::EncodeCandidateRequest(refine_request);

  std::vector<Stage> stages;
  {
    auto ctx = proto::RoundContext::Length(1, 10, epsilon);
    stages.push_back(Stage{
        "Pa", std::move(*ctx),
        [epsilon](LegacyClient& c) {
          return c.AnswerLengthRequest(1, 10, epsilon);
        },
        [epsilon](proto::ClientSession& s) {
          return s.AnswerLengthRequest(1, 10, epsilon);
        }});
  }
  {
    auto ctx = proto::RoundContext::SubShape(4, 8, epsilon, false);
    stages.push_back(Stage{
        "Pb", std::move(*ctx),
        [epsilon](LegacyClient& c) {
          return c.AnswerSubShapeRequest(4, 8, epsilon, false);
        },
        [epsilon](proto::ClientSession& s) {
          return s.AnswerSubShapeRequest(4, 8, epsilon, false);
        }});
  }
  {
    auto ctx = proto::RoundContext::Selection(selection_request, metric);
    stages.push_back(Stage{
        "Pc", std::move(*ctx),
        [&selection_wire](LegacyClient& c) {
          return c.AnswerCandidateRequest(selection_wire);
        },
        [&selection_wire](proto::ClientSession& s) {
          return s.AnswerCandidateRequest(selection_wire);
        }});
  }
  {
    auto ctx = proto::RoundContext::Refinement(refine_request, metric);
    stages.push_back(Stage{
        "Pd", std::move(*ctx),
        [&refine_wire](LegacyClient& c) {
          return c.AnswerRefinementRequest(refine_wire);
        },
        [&refine_wire](proto::ClientSession& s) {
          return s.AnswerRefinementRequest(refine_wire);
        }});
  }

  bench::PrintTitle("Client answer hot path (" +
                    std::to_string(scale.users) +
                    " reports/stage, single thread)");
  bench::PrintHeader({"stage", "path", "reports/s", "seconds", "speedup",
                      "identical"});

  bool all_identical = true;
  double pc_speedup = 0.0;
  for (const Stage& stage : stages) {
    bool identical = PathsAgree(stage, words, metric, /*sample=*/200);
    all_identical = all_identical && identical;

    PathResult best_legacy, best_string, best_context;
    for (int trial = 0; trial < std::max(scale.trials, 1); ++trial) {
      PathResult l = RunLegacyPath(stage, words, scale.users, metric);
      PathResult s = RunStringPath(stage, words, scale.users, metric);
      PathResult c = RunContextPath(stage, words, scale.users, metric);
      if (l.rate > best_legacy.rate) best_legacy = l;
      if (s.rate > best_string.rate) best_string = s;
      if (c.rate > best_context.rate) best_context = c;
    }
    auto speedup = [&](const PathResult& p) {
      return best_legacy.rate > 0 ? p.rate / best_legacy.rate : 0.0;
    };
    if (stage.name == "Pc") pc_speedup = speedup(best_context);
    const char* same = identical ? "yes" : "NO";
    bench::PrintRow({stage.name, "legacy", FormatDouble(best_legacy.rate, 6),
                     FormatDouble(best_legacy.seconds, 4), "1.000", same});
    bench::PrintRow({stage.name, "string", FormatDouble(best_string.rate, 6),
                     FormatDouble(best_string.seconds, 4),
                     FormatDouble(speedup(best_string), 3), same});
    bench::PrintRow({stage.name, "context",
                     FormatDouble(best_context.rate, 6),
                     FormatDouble(best_context.seconds, 4),
                     FormatDouble(speedup(best_context), 3), same});
    if (json != nullptr) {
      auto record = [&](const char* path, const PathResult& p) {
        json->AddRecord("client_hotpath",
                        {{"stage", stage.name},
                         {"path", path},
                         {"users", std::to_string(scale.users)},
                         {"metric", dist::MetricName(metric)}},
                        {{"reports_per_sec", p.rate},
                         {"seconds", p.seconds},
                         {"speedup_vs_legacy", speedup(p)},
                         {"bytes_up", static_cast<double>(p.bytes)}});
      };
      record("legacy", best_legacy);
      record("string", best_string);
      record("context", best_context);
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
      bool identical = MemoAgrees(stage, pool, metric, /*sample=*/3000);
      all_identical = all_identical && identical;
      PathResult on, off;
      for (int trial = 0; trial < std::max(scale.trials, 1); ++trial) {
        PathResult c = RunContextPath(stage, pool, scale.users, metric);
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
        "FAIL: the answer paths emitted different report bytes, or "
        "lockstep seeding changed an engine's stream");
    return 1;
  }
  if (simd::kLevel > 0 && best_kernel_speedup < 2.0) {
    bench::PrintTitle("WARNING: best SIMD kernel speedup " +
                      FormatDouble(best_kernel_speedup, 3) +
                      "x (dtw/oue) is below the 2x acceptance bar");
  }
  if (pc_speedup < 2.0) {
    bench::PrintTitle("WARNING: P_c context-path speedup " +
                      FormatDouble(pc_speedup, 3) +
                      "x is below the 2x acceptance bar");
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
