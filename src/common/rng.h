#ifndef PRIVSHAPE_COMMON_RNG_H_
#define PRIVSHAPE_COMMON_RNG_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "common/span.h"
#include "common/status.h"

namespace privshape {

/// Deterministically derives an independent stream seed from a base seed
/// and a stream index (SplitMix64 finalizer over the combined words).
///
/// This is how every simulated user gets its own reproducible randomness:
/// user i's draws depend only on (base, i), never on how many other users
/// ran before it or on which thread/shard processed it. The single-threaded
/// core pipeline and the multi-threaded collector both derive per-user
/// engines through this function, which is what makes their outputs
/// byte-identical for a fixed seed.
inline uint64_t DeriveSeed(uint64_t base, uint64_t stream) {
  uint64_t z = base + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Drop-in mt19937_64 with lazy seeding and a lazy first twist.
///
/// Emits the exact output stream of std::mt19937_64 (the generator is
/// fully specified by the standard, so this is checked bit-for-bit in
/// tests), but defers the work: std::mt19937_64 seeds all 312 state words
/// up front and block-twists all 312 on the first draw (~2.4us on a small
/// core) — yet a simulated client answering one collection round draws
/// only a handful of values. Output k (for k < n - m = 156) depends only
/// on seeded words k, k+1 and k+m, so this engine seeds just the prefix
/// it needs and computes outputs one at a time. Hot-path sessions never
/// pay for state they do not consume; heavy consumers (series generators,
/// shuffles) transparently materialize a real std::mt19937_64 at output
/// 156 and continue from it, so long streams cost what they always did.
///
/// The first draw still has to seed 157 words, a serial multiply chain of
/// about 0.4us for one lone session. SeedLockstep below seeds that prefix
/// for a block of fresh engines at once, interleaving the independent
/// chains so they overlap in the pipeline (about 0.1us per engine in a
/// block of kLockstepLanes); the output stream does not change.
class LazyMt64 {
 public:
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  explicit LazyMt64(uint64_t seed) : seed_(seed), seeded_(1) {
    state_[0] = seed;
  }

  result_type operator()() {
    if (full_) return (*full_)();
    if (pos_ == kLazyOutputs) {
      // Past the lazily computable prefix: replay into a full engine
      // (discard is exact) and delegate from here on.
      full_.emplace(seed_);
      full_->discard(pos_);
      return (*full_)();
    }
    // Standard recurrence for output pos_ (x_{n+pos_}); every referenced
    // word is part of the original seeded state because pos_ + m < n.
    SeedTo(pos_ + kM + 1);
    uint64_t y = (state_[pos_] & kUpperMask) |
                 (state_[pos_ + 1] & kLowerMask);
    uint64_t x = state_[pos_ + kM] ^ (y >> 1) ^ ((y & 1) ? kA : 0);
    ++pos_;
    // Tempering, as specified.
    x ^= (x >> 29) & 0x5555555555555555ULL;
    x ^= (x << 17) & 0x71d67fffeda60000ULL;
    x ^= (x << 37) & 0xfff7eee000000000ULL;
    x ^= x >> 43;
    return x;
  }

  /// Engines seeded together by one SeedLockstep pass; eight independent
  /// chains are enough to hide the multiply latency of each.
  static constexpr size_t kLockstepLanes = 8;

  /// True until the engine seeds anything beyond its seed word or draws:
  /// the precondition of SeedLockstep.
  bool fresh() const { return seeded_ == 1 && pos_ == 0 && !full_; }

  /// Seeds the prefix the first draw needs (words 0..m) of the `n`
  /// engines engine_at(0) .. engine_at(n - 1) (each a LazyMt64*),
  /// kLockstepLanes chains at a time. The words are exactly the ones
  /// operator() would seed lazily, so every engine's output stream is
  /// unchanged; later draws seed further words lazily, as before. Fails
  /// with FailedPrecondition, touching no engine, unless every engine is
  /// fresh(): an engine is never re-seeded.
  template <typename EngineAt>
  static Status SeedLockstep(size_t n, EngineAt&& engine_at) {
    for (size_t i = 0; i < n; ++i) {
      if (!engine_at(i)->fresh()) {
        return Status::FailedPrecondition(
            "SeedLockstep: engine already seeded or drawn from");
      }
    }
    size_t i = 0;
    for (; i + kLockstepLanes <= n; i += kLockstepLanes) {
      SeedLanes(engine_at, i, std::make_index_sequence<kLockstepLanes>());
    }
    // A partial tail block seeds one engine at a time, as lazily.
    for (; i < n; ++i) engine_at(i)->SeedTo(kM + 1);
    return Status::Ok();
  }

  void discard(unsigned long long z) {  // NOLINT(runtime/int)
    for (; z > 0; --z) (*this)();
  }

  /// Bulk draw: writes the next `n` outputs of the stream into `out`,
  /// exactly as `n` successive operator() calls would. A request that
  /// would cross the lazy prefix materializes the full engine once up
  /// front instead of paying the per-draw position check `n` times —
  /// this is the primitive behind the batched OUE/GRR bit generation.
  void FillU64(uint64_t* out, size_t n) {
    if (!full_ && pos_ + n > kLazyOutputs) {
      full_.emplace(seed_);
      full_->discard(pos_);
    }
    if (full_) {
      for (size_t i = 0; i < n; ++i) out[i] = (*full_)();
      return;
    }
    for (size_t i = 0; i < n; ++i) out[i] = (*this)();
  }

 private:
  static constexpr size_t kN = 312;
  static constexpr size_t kM = 156;
  static constexpr size_t kLazyOutputs = kN - kM;
  static constexpr uint64_t kA = 0xb5026f5aa96619e9ULL;
  static constexpr uint64_t kF = 6364136223846793005ULL;
  static constexpr int kR = 31;
  static constexpr uint64_t kLowerMask = (uint64_t{1} << kR) - 1;
  static constexpr uint64_t kUpperMask = ~kLowerMask;

  void SeedTo(size_t count) {
    for (; seeded_ < count; ++seeded_) {
      state_[seeded_] =
          kF * (state_[seeded_ - 1] ^ (state_[seeded_ - 1] >> 62)) +
          seeded_;
    }
  }

  /// The seeding recurrence of SeedTo over sizeof...(J) engines at once.
  /// The lanes are unrolled at compile time, so every chain stays in a
  /// register and the independent multiplies overlap.
  template <typename EngineAt, size_t... J>
  static void SeedLanes(EngineAt& engine_at, size_t base,
                        std::index_sequence<J...>) {
    constexpr size_t kPrefix = kM + 1;  // words the first output reads
    LazyMt64* engines[] = {engine_at(base + J)...};
    uint64_t* state[] = {engines[J]->state_...};
    uint64_t x[] = {state[J][0]...};
    for (size_t w = 1; w < kPrefix; ++w) {
      ((x[J] = kF * (x[J] ^ (x[J] >> 62)) + w, state[J][w] = x[J]), ...);
    }
    ((engines[J]->seeded_ = kPrefix), ...);
  }

  uint64_t state_[kN];  // seeded prefix only; filled on demand
  uint64_t seed_;
  size_t seeded_;
  size_t pos_ = 0;
  std::optional<std::mt19937_64> full_;
};

/// Maps a probability to the raw-u64 acceptance threshold used by the
/// batched Bernoulli rule `bit = (u < ThresholdForProbability(p))` for a
/// uniform engine word u: threshold = round-toward-zero of p * 2^64, so
/// the realized probability is within 2^-64 of the double `p` itself
/// (p's own representation error dwarfs this for any LDP parameter).
/// Clamps: p <= 0 never fires, p >= 1 fires for every word but
/// u == 2^64 - 1 (probability 2^-64; no validated mechanism passes
/// p outside (0, 1)).
inline uint64_t ThresholdForProbability(double p) {
  if (p <= 0.0) return 0;
  double scaled = std::ldexp(p, 64);
  if (scaled >= 18446744073709551616.0) return ~uint64_t{0};
  return static_cast<uint64_t>(scaled);
}

/// Maps one uniform engine word to a uniform index in [0, n) by the
/// multiply-shift (Lemire) reduction: high 64 bits of u * n. Bias is at
/// most n / 2^64 — immaterial for any candidate-domain n — and unlike
/// rejection sampling it consumes exactly one word, which is what makes
/// batched GRR draws possible (fixed words per report).
inline uint64_t BoundedFromU64(uint64_t u, uint64_t n) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(u) * n) >> 64);
}

/// Deterministic random engine used across the library.
///
/// Every randomized component takes a Rng& (or a seed) explicitly so tests
/// and benchmarks are reproducible; there is no hidden global generator.
/// The bit stream is exactly std::mt19937_64's (via LazyMt64 above), so
/// per-user seeding stays cheap on the collection hot path without
/// changing a single draw anywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in the inclusive range [lo, hi].
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Uniform index in [0, n); n must be positive.
  size_t Index(size_t n) {
    return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1));
  }

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Standard (or scaled) normal draw. A zero stddev is a point mass:
  /// it returns `mean` without a draw (std::normal_distribution requires
  /// stddev > 0).
  double Gaussian(double mean = 0.0, double stddev = 1.0) {
    if (stddev == 0.0) return mean;
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Laplace(0, b) draw via inverse CDF.
  double Laplace(double scale) {
    double u = Uniform(-0.5, 0.5);
    double sign = u < 0 ? -1.0 : 1.0;
    return -scale * sign * std::log(1.0 - 2.0 * std::abs(u));
  }

  /// Samples an index proportionally to the given non-negative weights.
  /// Returns weights.size() - 1 on degenerate input (all zero weights are
  /// treated as uniform).
  size_t Discrete(Span<const double> weights);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    std::shuffle(v->begin(), v->end(), engine_);
  }

  /// Bulk raw draw: the next `n` engine outputs, in stream order. The
  /// batched LDP paths (ThresholdForProbability / BoundedFromU64 over a
  /// block of words) consume randomness through this instead of one
  /// distribution call per bit.
  void FillU64(uint64_t* out, size_t n) { engine_.FillU64(out, n); }

  /// Derives an independent child engine; used to give each simulated user
  /// or worker thread its own stream.
  Rng Fork() { return Rng(engine_()); }

  LazyMt64& engine() { return engine_; }

  /// LazyMt64::SeedLockstep over the engines of the `n` Rngs
  /// rng_at(0) .. rng_at(n - 1) (each an Rng*), with the same contract.
  template <typename RngAt>
  static Status SeedLockstep(size_t n, RngAt&& rng_at) {
    return LazyMt64::SeedLockstep(
        n, [&rng_at](size_t i) { return &rng_at(i)->engine_; });
  }

 private:
  LazyMt64 engine_;
};

}  // namespace privshape

#endif  // PRIVSHAPE_COMMON_RNG_H_
