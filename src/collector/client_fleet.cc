#include "collector/client_fleet.h"

#include <cstdlib>
#include <memory>
#include <utility>

#include "common/cli.h"
#include "common/csv.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "series/generators.h"

namespace privshape::collector {

ClientFleet::WordFn ClientFleet::TiledWords(std::vector<Sequence> words) {
  auto shared =
      std::make_shared<const std::vector<Sequence>>(std::move(words));
  return [shared](size_t user) -> Sequence {
    if (shared->empty()) return Sequence{};
    return (*shared)[user % shared->size()];
  };
}

ClientFleet::LabelFn ClientFleet::TiledLabels(std::vector<int> labels) {
  if (labels.empty()) return nullptr;
  auto shared = std::make_shared<const std::vector<int>>(std::move(labels));
  return [shared](size_t user) -> int {
    return (*shared)[user % shared->size()];
  };
}

ClientFleet ClientFleet::FromWords(std::vector<Sequence> words,
                                   size_t num_users, dist::Metric metric,
                                   uint64_t seed, std::vector<int> labels) {
  // Labels tile with the same modulo as the words, so user u's label
  // always belongs to user u's word. A length mismatch would silently
  // pair words with foreign labels; abort loudly instead.
  if (!labels.empty() && labels.size() != words.size()) {
    PS_LOG(kError) << "FromWords: " << labels.size() << " labels for "
                   << words.size() << " words";
    std::abort();
  }
  return ClientFleet(num_users, TiledWords(std::move(words)), metric, seed,
                     TiledLabels(std::move(labels)));
}

proto::ClientSession ClientFleet::MakeSession(size_t user) const {
  return proto::ClientSession(word_fn_(user), DeriveSeed(seed_, user),
                              LabelFor(user));
}

void ClientFleet::MakeSessions(
    Span<const size_t> users,
    std::vector<proto::ClientSession>* block) const {
  if (users.size() > kSessionBlock) {
    PS_LOG(kError) << "MakeSessions: " << users.size()
                   << " users for a block of " << kSessionBlock;
    std::abort();
  }
  block->clear();
  block->reserve(kSessionBlock);
  for (size_t user : users) {
    block->emplace_back(word_fn_(user), DeriveSeed(seed_, user),
                        LabelFor(user));
  }
  // Fresh sessions always satisfy SeedEngines' precondition; a failure
  // here is a broken invariant, not an input error.
  Status seeded = proto::ClientSession::SeedEngines(block->data(),
                                                    block->size());
  if (!seeded.ok()) {
    PS_LOG(kError) << "MakeSessions: " << seeded.ToString();
    std::abort();
  }
}

std::vector<Sequence> ClientFleet::MaterializeWords() const {
  std::vector<Sequence> words;
  words.reserve(num_users_);
  for (size_t user = 0; user < num_users_; ++user) {
    words.push_back(word_fn_(user));
  }
  return words;
}

std::vector<int> ClientFleet::MaterializeLabels() const {
  std::vector<int> labels;
  if (!labeled()) return labels;
  labels.reserve(num_users_);
  for (size_t user = 0; user < num_users_; ++user) {
    labels.push_back(label_fn_(user));
  }
  return labels;
}

Result<ClientFleet::WordFn> GeneratedWordSource(const std::string& dataset,
                                                uint64_t seed) {
  if (dataset != "trace" && dataset != "symbols") {
    return Status::InvalidArgument(
        "unknown generated dataset (want trace|symbols): " + dataset);
  }
  bool symbols = dataset == "symbols";
  // Separate derivation base so data synthesis never shares a stream with
  // the per-user privacy randomness (which uses DeriveSeed(seed, u)).
  uint64_t data_seed = DeriveSeed(seed, 0x5eedda7aULL);
  core::TransformOptions transform;
  transform.t = symbols ? 6 : 4;
  transform.w = symbols ? 25 : 10;
  size_t classes = static_cast<size_t>(
      symbols ? series::kSymbolsClasses : series::kTraceClasses);
  return ClientFleet::WordFn(
      [symbols, data_seed, transform, classes](size_t user) -> Sequence {
        series::GeneratorOptions gopts;
        Rng rng(DeriveSeed(data_seed, user));
        int label = static_cast<int>(user % classes);
        series::TimeSeries inst =
            symbols ? series::MakeSymbolsInstance(label, gopts, &rng)
                    : series::MakeTraceInstance(label, gopts, &rng);
        auto word = core::TransformSeries(inst.values, transform);
        if (!word.ok()) {
          // Unreachable with the shipped generators (instances are far
          // longer than the SAX window); abort loudly rather than serve
          // placeholder words that would "succeed" end to end.
          PS_LOG(kError) << "generated instance for user " << user
                         << " untransformable: "
                         << word.status().ToString();
          std::abort();
        }
        return std::move(*word);
      });
}

Result<core::MechanismConfig> GeneratedDatasetConfig(
    const std::string& dataset) {
  if (dataset != "trace" && dataset != "symbols") {
    return Status::InvalidArgument(
        "unknown generated dataset (want trace|symbols): " + dataset);
  }
  bool symbols = dataset == "symbols";
  core::MechanismConfig config;
  config.t = symbols ? 6 : 4;
  config.k = symbols ? 6 : 3;
  config.c = 3;
  config.ell_low = 1;
  config.ell_high = symbols ? 15 : 10;
  config.metric = symbols ? dist::Metric::kDtw : dist::Metric::kSed;
  return config;
}

Result<int> GeneratedNumClasses(const std::string& dataset) {
  if (dataset == "trace") return static_cast<int>(series::kTraceClasses);
  if (dataset == "symbols") return static_cast<int>(series::kSymbolsClasses);
  return Status::InvalidArgument(
      "unknown generated dataset (want trace|symbols): " + dataset);
}

Result<ClientFleet::LabelFn> GeneratedLabelSource(const std::string& dataset) {
  auto classes = GeneratedNumClasses(dataset);
  if (!classes.ok()) return classes.status();
  size_t num_classes = static_cast<size_t>(*classes);
  return ClientFleet::LabelFn([num_classes](size_t user) -> int {
    // Mirrors GeneratedWordSource's instance synthesis: user u's series
    // is generated from class u % classes.
    return static_cast<int>(user % num_classes);
  });
}

Result<std::vector<int>> ParseLabelsCsv(const std::string& text,
                                        int num_classes) {
  if (num_classes < 1) {
    return Status::InvalidArgument("num_classes must be >= 1");
  }
  auto rows = ParseCsvString(text);
  if (!rows.ok()) return rows.status();
  std::vector<int> labels;
  labels.reserve(rows->size());
  for (size_t i = 0; i < rows->size(); ++i) {
    const auto& row = (*rows)[i];
    if (row.size() != 1) {
      return Status::InvalidArgument(
          "labels row " + std::to_string(i) + " has " +
          std::to_string(row.size()) + " cells (want exactly 1)");
    }
    auto label = ParseIntFlag("label", row[0]);
    if (!label.ok()) {
      return Status::InvalidArgument("labels row " + std::to_string(i) +
                                     ": " + label.status().message());
    }
    if (*label < 0 || *label >= num_classes) {
      return Status::OutOfRange(
          "labels row " + std::to_string(i) + ": label " +
          std::to_string(*label) + " outside [0, " +
          std::to_string(num_classes) + ")");
    }
    labels.push_back(*label);
  }
  if (labels.empty()) {
    return Status::InvalidArgument("labels file is empty");
  }
  return labels;
}

}  // namespace privshape::collector
