#ifndef PRIVSHAPE_COLLECTOR_SHARDED_AGGREGATOR_H_
#define PRIVSHAPE_COLLECTOR_SHARDED_AGGREGATOR_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/status.h"
#include "protocol/session.h"

namespace privshape::collector {

/// What one collection round aggregates: the report kind it accepts, the
/// per-level report domain, the budget used for debiasing, and the level
/// window. Single-level stages (P_a, P_d, one trie level of P_c) set
/// num_levels = 1 with min_level = the expected level; the P_b round spans
/// levels [1, ell_s).
struct StageSpec {
  proto::ReportKind kind = proto::ReportKind::kLength;
  size_t domain = 0;
  double epsilon = 0.0;
  uint64_t min_level = 0;
  size_t num_levels = 1;
};

/// N-way sharded aggregation of one round's encoded reports.
///
/// Each shard wraps its own per-level proto::ReportAggregator plus local
/// rejection/byte tallies, so ingestion is lock-free: a shard index must
/// only be fed from one thread at a time (the RoundCoordinator assigns
/// each shard to exactly one worker), and no synchronization is needed
/// anywhere on the hot path. All aggregation state is integer counts, so
/// the cross-shard Merge is exact and associative: debiased estimates are
/// byte-identical for any shard count and any ingestion order.
class ShardedAggregator {
 public:
  /// `num_shards` >= 1 independent ingestion lanes.
  ShardedAggregator(const StageSpec& spec, size_t num_shards);

  size_t num_shards() const { return shards_.size(); }
  const StageSpec& spec() const { return spec_; }

  /// Ingests a batch of encoded reports into one shard, each decoded
  /// from an in-place view of the flat batch buffer (no report bytes are
  /// copied). Undecodable reports and reports outside the level window
  /// count as rejected; wrong kinds and out-of-domain values are rejected
  /// by the underlying ReportAggregator. Not synchronized: one thread per
  /// shard at a time.
  PS_REPORT_PATH
  void ConsumeBatch(size_t shard, const proto::ReportBatch& reports);

  /// Exact cross-shard merge of one level bucket (0-based within the
  /// level window). The returned aggregator sees exactly the counts a
  /// single unsharded aggregator would have.
  proto::ReportAggregator MergedLevel(size_t level_bucket) const;

  /// Exact cross-collector merge: folds every lane of `other` (an
  /// aggregator for the same stage, possibly with a different shard
  /// count) into this one, including the rejection/byte tallies. All
  /// state is integer counts, so merging N collectors' aggregators in
  /// any order equals one aggregator fed every report. Fails unless the
  /// stage specs match exactly.
  Status Merge(const ShardedAggregator& other);

  /// Debiased counts of one level bucket (GRR debias, or raw counts for
  /// kSelection), via the merged aggregator.
  std::vector<double> DebiasedCounts(size_t level_bucket) const;

  /// Totals across shards and levels.
  size_t accepted() const;
  size_t rejected() const;
  size_t bytes_ingested() const;

 private:
  struct Shard {
    std::vector<proto::ReportAggregator> levels;
    size_t rejected = 0;  ///< undecodable or outside the level window
    size_t bytes = 0;
  };

  /// Decode + route + count of one encoded report.
  void ConsumeOne(Shard& lane, std::string_view encoded);

  StageSpec spec_;
  std::vector<Shard> shards_;
};

}  // namespace privshape::collector

#endif  // PRIVSHAPE_COLLECTOR_SHARDED_AGGREGATOR_H_
