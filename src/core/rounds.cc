#include "core/rounds.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <string>

#include "common/logging.h"
#include "common/rng.h"
#include "core/population.h"
#include "eval/agglomerative.h"
#include "protocol/messages.h"
#include "protocol/session.h"

namespace privshape::core {

Result<PrivShapeServer> PrivShapeServer::Create(MechanismConfig config) {
  PRIVSHAPE_RETURN_IF_ERROR(config.Validate());
  auto trie = trie::CandidateTrie::Create(config.t);
  if (!trie.ok()) return trie.status();
  if (config.allow_repeats) trie->set_allow_repeats(true);
  return PrivShapeServer(config, std::move(*trie));
}

size_t PrivShapeServer::ck() const {
  return static_cast<size_t>(config_.c) * static_cast<size_t>(config_.k);
}

Status PrivShapeServer::FinishLength(
    const std::vector<double>& debiased_counts) {
  size_t domain =
      static_cast<size_t>(config_.ell_high - config_.ell_low + 1);
  if (debiased_counts.size() != domain) {
    return Status::InvalidArgument("length counts do not match the domain");
  }
  size_t best = 0;
  for (size_t v = 1; v < debiased_counts.size(); ++v) {
    if (debiased_counts[v] > debiased_counts[best]) best = v;
  }
  ell_s_ = config_.ell_low + static_cast<int>(best);
  result_.frequent_length = ell_s_;
  return result_.accountant.Charge("Pa", config_.epsilon);
}

size_t PrivShapeServer::NumSubShapeLevels() const {
  return ell_s_ >= 2 ? static_cast<size_t>(ell_s_ - 1) : 0;
}

Status PrivShapeServer::FinishSubShapes(
    const std::vector<std::vector<double>>& level_counts) {
  if (ell_s_ < 1) {
    return Status::FailedPrecondition("FinishLength must run first");
  }
  if (level_counts.size() != NumSubShapeLevels()) {
    return Status::InvalidArgument("sub-shape counts level mismatch");
  }
  subshapes_ = RankSubShapes(level_counts, config_.t, ck(),
                             config_.allow_repeats);
  return result_.accountant.Charge("Pb", config_.epsilon);
}

Result<std::vector<Sequence>> PrivShapeServer::BeginTrieLevel(int level) {
  if (level != current_level_ + 1 || level >= ell_s_) {
    return Status::FailedPrecondition("trie levels must run in order");
  }
  if (level == 0) {
    trie_.ExpandRoot();
  } else {
    trie_.PruneToTopK(ck());
    // Gate the fan-out with the frequent transitions at this level.
    const auto& transitions =
        subshapes_.top_transitions[static_cast<size_t>(level) - 1];
    std::set<trie::Transition> allowed(transitions.begin(),
                                       transitions.end());
    // Count the continuations the gate would allow; if none, fall back
    // to the full fan-out so the trie never dead-ends.
    size_t possible = 0;
    for (const Sequence& path : trie_.FrontierCandidates()) {
      Symbol last = path.back();
      for (const auto& tr : allowed) {
        if (tr.first == last) ++possible;
      }
    }
    if (possible == 0) {
      PS_LOG(kWarning) << "privshape: no frequent transition continues "
                          "level "
                       << level << "; falling back to full expansion";
      trie_.ExpandAll();
    } else {
      trie_.ExpandWithTransitions(allowed);
    }
  }
  current_level_ = level;
  return trie_.FrontierCandidates();
}

Status PrivShapeServer::FinishTrieLevel(
    const std::vector<double>& selection_counts) {
  const std::vector<int>& frontier = trie_.Frontier();
  if (selection_counts.size() != frontier.size()) {
    return Status::InvalidArgument("selection counts frontier mismatch");
  }
  for (size_t i = 0; i < frontier.size(); ++i) {
    PRIVSHAPE_RETURN_IF_ERROR(
        trie_.SetFrequency(frontier[i], selection_counts[i]));
  }
  return result_.accountant.Charge(
      "Pc.level" + std::to_string(current_level_), config_.epsilon);
}

Result<std::vector<Sequence>> PrivShapeServer::BeginRefinement() {
  if (current_level_ + 1 != ell_s_) {
    return Status::FailedPrecondition("all trie levels must finish first");
  }
  trie_.PruneToTopK(ck());
  candidates_ = trie_.FrontierCandidates();
  if (candidates_.empty()) {
    return Status::Internal("trie expansion produced no candidates");
  }
  return candidates_;
}

Result<MechanismResult> PrivShapeServer::FinishRefinement(
    const std::vector<double>& debiased_counts) {
  if (debiased_counts.size() < candidates_.size()) {
    return Status::InvalidArgument("refinement counts candidate mismatch");
  }
  std::vector<double> refined(candidates_.size(), 0.0);
  for (size_t i = 0; i < candidates_.size(); ++i) {
    refined[i] = debiased_counts[i];
  }
  PRIVSHAPE_RETURN_IF_ERROR(
      result_.accountant.Charge("Pd", config_.epsilon));
  return Finalize(refined, std::vector<int>(candidates_.size(), -1));
}

Result<MechanismResult> PrivShapeServer::FinishClassRefinement(
    const std::vector<double>& cell_counts) {
  if (config_.num_classes <= 0) {
    return Status::FailedPrecondition(
        "class refinement requires num_classes > 0");
  }
  size_t cells =
      candidates_.size() * static_cast<size_t>(config_.num_classes);
  if (cell_counts.size() != cells) {
    return Status::InvalidArgument("class refinement cell count mismatch");
  }
  std::vector<double> refined(candidates_.size(), 0.0);
  std::vector<int> refined_labels(candidates_.size(), -1);
  for (size_t i = 0; i < candidates_.size(); ++i) {
    double total = 0.0;
    double best = -std::numeric_limits<double>::infinity();
    int best_label = 0;
    for (int cls = 0; cls < config_.num_classes; ++cls) {
      double v = cell_counts[i * static_cast<size_t>(config_.num_classes) +
                             static_cast<size_t>(cls)];
      total += v;
      if (v > best) {
        best = v;
        best_label = cls;
      }
    }
    refined[i] = total;
    refined_labels[i] = best_label;
  }
  PRIVSHAPE_RETURN_IF_ERROR(
      result_.accountant.Charge("Pd", config_.epsilon));
  BuildRefinedPool(refined, refined_labels);

  // Classification (§V-E): the criteria are "the most frequent shapes
  // estimated within each class" — pick the top-frequency candidate per
  // class so every represented class contributes one shape.
  for (int cls = 0; cls < config_.num_classes; ++cls) {
    double best = -std::numeric_limits<double>::infinity();
    int best_idx = -1;
    for (size_t i = 0; i < candidates_.size(); ++i) {
      if (refined_labels[i] != cls) continue;
      if (refined[i] > best) {
        best = refined[i];
        best_idx = static_cast<int>(i);
      }
    }
    if (best_idx >= 0) {
      result_.shapes.push_back(
          result_.refined_pool[static_cast<size_t>(best_idx)]);
    }
  }
  return EmitSorted();
}

Result<MechanismResult> PrivShapeServer::FinishWithoutRefinement() {
  if (config_.num_classes > 0) {
    return Status::Unimplemented(
        "classification requires the refinement stage (it carries the "
        "label information)");
  }
  // Ablation: trust the last trie level's EM counts; P_d stays unused
  // (so the user-level guarantee is unchanged).
  const std::vector<int>& frontier = trie_.Frontier();
  std::vector<double> refined(candidates_.size(), 0.0);
  for (size_t i = 0; i < frontier.size(); ++i) {
    refined[i] = trie_.Frequency(frontier[i]);
  }
  return Finalize(refined, std::vector<int>(candidates_.size(), -1));
}

void PrivShapeServer::BuildRefinedPool(
    const std::vector<double>& refined,
    const std::vector<int>& refined_labels) {
  result_.refined_pool.reserve(candidates_.size());
  for (size_t i = 0; i < candidates_.size(); ++i) {
    ShapeCandidate cand;
    cand.shape = candidates_[i];
    cand.frequency = refined[i];
    cand.label = refined_labels[i];
    result_.refined_pool.push_back(std::move(cand));
  }
}

Result<MechanismResult> PrivShapeServer::EmitSorted() {
  std::stable_sort(result_.shapes.begin(), result_.shapes.end(),
                   [](const ShapeCandidate& a, const ShapeCandidate& b) {
                     return a.frequency > b.frequency;
                   });
  PRIVSHAPE_RETURN_IF_ERROR(
      result_.accountant.CheckWithinBudget(config_.epsilon));
  return std::move(result_);
}

Result<MechanismResult> PrivShapeServer::Finalize(
    const std::vector<double>& refined,
    const std::vector<int>& refined_labels) {
  BuildRefinedPool(refined, refined_labels);

  if (config_.disable_postprocessing) {
    // Ablation: raw top-k by refined frequency, duplicates and all.
    std::vector<size_t> order(candidates_.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return refined[a] > refined[b];
    });
    size_t emit = std::min(static_cast<size_t>(config_.k), order.size());
    for (size_t i = 0; i < emit; ++i) {
      result_.shapes.push_back(result_.refined_pool[order[i]]);
    }
    return EmitSorted();  // pushes are already frequency-ordered
  }

  // Clustering: group similar candidates, keep the most frequent member
  // per group (§IV-C) so near-duplicates do not crowd out distinct shapes.
  auto distance = dist::MakeDistance(config_.metric);
  size_t n_cand = candidates_.size();
  size_t groups = std::min(static_cast<size_t>(config_.k), n_cand);
  std::vector<std::vector<double>> dmatrix(n_cand,
                                           std::vector<double>(n_cand, 0.0));
  dist::DtwScratch scratch;
  for (size_t i = 0; i < n_cand; ++i) {
    for (size_t j = i + 1; j < n_cand; ++j) {
      double d = distance->Distance(dist::SymbolView(candidates_[i]),
                                    dist::SymbolView(candidates_[j]),
                                    &scratch);
      dmatrix[i][j] = dmatrix[j][i] = d;
    }
  }
  // Average linkage balances dedup strength against the risk of chaining
  // two genuinely distinct shapes into one group (which would silently
  // drop a class); see bench_ablation_design for the measured trade-off.
  auto clusters = eval::AgglomerativeCluster(dmatrix,
                                             static_cast<int>(groups),
                                             eval::Linkage::kAverage);
  if (!clusters.ok()) return clusters.status();

  for (size_t g = 0; g < groups; ++g) {
    double best = -std::numeric_limits<double>::infinity();
    int best_idx = -1;
    for (size_t i = 0; i < n_cand; ++i) {
      if (static_cast<size_t>((*clusters)[i]) != g) continue;
      if (refined[i] > best) {
        best = refined[i];
        best_idx = static_cast<int>(i);
      }
    }
    if (best_idx >= 0) {
      result_.shapes.push_back(
          result_.refined_pool[static_cast<size_t>(best_idx)]);
    }
  }
  return EmitSorted();
}

Result<MechanismResult> RunRounds(const MechanismConfig& config,
                                  size_t num_users,
                                  const RoundExecutor& execute) {
  auto server = PrivShapeServer::Create(config);
  if (!server.ok()) return server.status();

  // The split is the server's only use of the shared engine; every
  // user-side draw comes from the user's own derived stream.
  Rng rng(config.seed);
  FourWaySplit split = SplitFourWay(num_users, config.frac_a, config.frac_b,
                                    config.frac_c, config.frac_d, &rng);

  // One round: the request encoded once, the context built once, then
  // the executor's per-level counts.
  auto run = [&execute](const std::string& stage,
                        const std::vector<size_t>& population,
                        const std::string& encoded_request,
                        const Result<proto::RoundContext>& context)
      -> Result<std::vector<std::vector<double>>> {
    if (!context.ok()) return context.status();
    return execute(
        RoundRequest{stage, population, *context, encoded_request});
  };

  // P_a: frequent length.
  if (split.pa.empty()) {
    return Status::InvalidArgument(
        "length estimation requires a non-empty population");
  }
  {
    proto::LengthRequest request;
    request.ell_low = config.ell_low;
    request.ell_high = config.ell_high;
    request.epsilon = config.epsilon;
    auto counts = run("Pa", split.pa, proto::EncodeLengthRequest(request),
                      proto::RoundContext::Length(request));
    if (!counts.ok()) return counts.status();
    PRIVSHAPE_RETURN_IF_ERROR(server->FinishLength((*counts)[0]));
  }
  int ell_s = server->frequent_length();

  // P_b: frequent sub-shape transitions (no adjacent pairs when
  // ell_S == 1).
  if (server->NumSubShapeLevels() == 0) {
    PRIVSHAPE_RETURN_IF_ERROR(server->FinishSubShapes({}));
  } else {
    proto::SubShapeRequest request;
    request.alphabet = config.t;
    request.ell_s = ell_s;
    request.epsilon = config.epsilon;
    request.allow_repeats = config.allow_repeats;
    auto counts = run("Pb", split.pb, proto::EncodeSubShapeRequest(request),
                      proto::RoundContext::SubShape(request));
    if (!counts.ok()) return counts.status();
    PRIVSHAPE_RETURN_IF_ERROR(server->FinishSubShapes(*counts));
  }

  // P_c: one candidate broadcast + EM selection per trie level.
  std::vector<std::vector<size_t>> level_groups =
      PartitionGroups(split.pc, static_cast<size_t>(ell_s));
  for (int level = 0; level < ell_s; ++level) {
    auto candidates = server->BeginTrieLevel(level);
    if (!candidates.ok()) return candidates.status();
    proto::CandidateRequest request;
    request.level = static_cast<uint64_t>(level);
    request.epsilon = config.epsilon;
    request.candidates = std::move(*candidates);
    std::string encoded = proto::EncodeCandidateRequest(request);
    auto counts = run("Pc.level" + std::to_string(level),
                      level_groups[static_cast<size_t>(level)], encoded,
                      proto::RoundContext::Selection(std::move(request),
                                                     config.metric));
    if (!counts.ok()) return counts.status();
    PRIVSHAPE_RETURN_IF_ERROR(server->FinishTrieLevel((*counts)[0]));
  }

  // P_d / P_e: refinement over the surviving candidates — GRR over
  // candidate indices for clustering (P_d), or OUE over candidate x class
  // cells for classification (P_e, §V-E) — then post-processing.
  auto candidates = server->BeginRefinement();
  if (!candidates.ok()) return candidates.status();
  if (config.disable_refinement) return server->FinishWithoutRefinement();
  if (config.num_classes > 0) {
    proto::ClassRefineRequest request;
    request.epsilon = config.epsilon;
    request.num_classes = static_cast<uint64_t>(config.num_classes);
    request.candidates = std::move(*candidates);
    std::string encoded = proto::EncodeClassRefineRequest(request);
    auto counts = run("Pe", split.pd, encoded,
                      proto::RoundContext::ClassRefinement(std::move(request),
                                                           config.metric));
    if (!counts.ok()) return counts.status();
    return server->FinishClassRefinement((*counts)[0]);
  }
  proto::CandidateRequest request;
  request.epsilon = config.epsilon;
  request.candidates = std::move(*candidates);
  std::string encoded = proto::EncodeCandidateRequest(request);
  auto counts = run(
      "Pd", split.pd, encoded,
      proto::RoundContext::Refinement(std::move(request), config.metric));
  if (!counts.ok()) return counts.status();
  return server->FinishRefinement((*counts)[0]);
}

PS_REPORT_PATH
Result<std::vector<std::vector<double>>> AnswerRoundInProcess(
    const proto::RoundContext& context, const std::vector<size_t>& population,
    const std::vector<Sequence>& words, const std::vector<int>* labels,
    uint64_t seed) {
  std::vector<proto::ReportAggregator> levels(
      context.num_levels(),
      proto::ReportAggregator(context.kind(), context.domain(),
                              context.epsilon()));
  proto::AnswerScratch scratch;
  proto::Report& report = scratch.report;
  constexpr size_t kBlock = LazyMt64::kLockstepLanes;
  std::vector<proto::ClientSession> block;
  block.reserve(kBlock);
  for (size_t begin = 0; begin < population.size(); begin += kBlock) {
    size_t end = std::min(population.size(), begin + kBlock);
    block.clear();
    for (size_t i = begin; i < end; ++i) {
      size_t user = population[i];
      if (user >= words.size() ||
          (labels != nullptr && user >= labels->size())) {
        return Status::OutOfRange("population index outside dataset");
      }
      block.emplace_back(words[user], DeriveSeed(seed, user),
                         labels != nullptr ? (*labels)[user] : -1);
    }
    PRIVSHAPE_RETURN_IF_ERROR(
        proto::ClientSession::SeedEngines(block.data(), block.size()));
    for (proto::ClientSession& session : block) {
      PRIVSHAPE_RETURN_IF_ERROR(session.Answer(context, &scratch, &report));
      uint64_t bucket = report.level - context.min_level();
      if (report.level < context.min_level() || bucket >= levels.size()) {
        return Status::Internal("report level outside the round's window");
      }
      levels[static_cast<size_t>(bucket)].ConsumeReport(report);
    }
  }
  std::vector<std::vector<double>> counts;
  counts.reserve(levels.size());
  for (const proto::ReportAggregator& level : levels) {
    counts.push_back(level.EstimatedCounts());
  }
  return counts;
}

}  // namespace privshape::core
