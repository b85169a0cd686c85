#include "collector/multi_collector.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

namespace privshape::collector {

MultiCollector::MultiCollector(core::MechanismConfig config,
                               CollectorOptions options, ThreadPool* pool,
                               size_t num_collectors)
    : config_(config) {
  num_collectors = std::max<size_t>(num_collectors, 1);
  coordinators_.reserve(num_collectors);
  for (size_t c = 0; c < num_collectors; ++c) {
    coordinators_.emplace_back(config, options, pool);
  }
}

Result<core::MechanismResult> MultiCollector::Collect(
    const ClientFleet& fleet, CollectorMetrics* metrics) {
  if (config_.num_classes > 0 && !fleet.labeled()) {
    return Status::FailedPrecondition(
        "classification refinement requires a labeled fleet");
  }
  if (metrics != nullptr) {
    metrics->num_shards = coordinators_.front().EffectiveShards();
    metrics->num_threads = coordinators_.front().EffectiveThreads();
    metrics->num_collectors = coordinators_.size();
    metrics->queue_depth = coordinators_.front().options().queue_depth;
    metrics->ingest = coordinators_.front().options().streaming
                          ? "streaming"
                          : "barrier";
  }
  auto run_round = [this, &fleet](const std::vector<size_t>& population,
                                  const StageSpec& spec, const std::string&,
                                  const AnswerFn& answer) -> RoundOutcome {
    size_t sites = coordinators_.size();
    if (sites == 1) {
      // Single site: same code path as a bare RoundCoordinator, no site
      // threads — so "--collectors 1" is exactly the one-collector run.
      return coordinators_[0].RunRound(fleet, population, spec, answer);
    }
    size_t n = population.size();
    // Site c owns the contiguous population slice [n*c/C, n*(c+1)/C).
    // All sites run concurrently (sharing the pool for their stripe
    // workers); the slice boundaries cannot affect the merged counts.
    std::vector<std::optional<RoundOutcome>> outcomes(sites);
    std::vector<std::exception_ptr> errors(sites);
    std::vector<std::thread> site_threads;
    site_threads.reserve(sites);
    for (size_t c = 0; c < sites; ++c) {
      std::vector<size_t> slice(population.begin() + n * c / sites,
                                population.begin() + n * (c + 1) / sites);
      site_threads.emplace_back(
          [this, &outcomes, &errors, &spec, &answer, &fleet, c,
           slice = std::move(slice)] {
            // An exception escaping a std::thread body would terminate
            // the process; capture it and rethrow after the joins, like
            // ThreadPool::ParallelFor does.
            try {
              outcomes[c] = coordinators_[c].RunRound(fleet, slice, spec,
                                                      answer);
            } catch (...) {
              errors[c] = std::current_exception();
            }
          });
    }
    for (auto& thread : site_threads) thread.join();
    for (const auto& error : errors) {
      if (error) std::rethrow_exception(error);
    }
    RoundOutcome merged = *std::move(outcomes[0]);
    for (size_t c = 1; c < sites; ++c) {
      // Same spec by construction, so Merge cannot fail.
      (void)merged.agg.Merge(outcomes[c]->agg);
      merged.client_errors += outcomes[c]->client_errors;
      merged.distinct_words += outcomes[c]->distinct_words;
      merged.ingest_latency.Merge(outcomes[c]->ingest_latency);
    }
    return merged;
  };
  return DriveProtocol(config_, fleet.num_users(), run_round, metrics);
}

}  // namespace privshape::collector
