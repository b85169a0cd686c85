/// Frozen outputs of core::PrivShape::Run: for each configuration below
/// and two seeds, the exact frequent length, output shapes and refined
/// pool (frequencies as hex-float literals, so equality is bit for bit).
/// The values are literal data, computed once and shared with no code
/// path, so they pin the one round sequence and the one client answer
/// path against any change that moves a draw, a count or a debias step.
/// A deliberate change to the per-user randomness re-derives them.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "collector/client_fleet.h"
#include "core/privshape.h"

namespace privshape {
namespace {

/// The fleet of one golden case: words, labels (empty when unlabeled)
/// and the mechanism configuration.
struct GoldenInput {
  core::MechanismConfig config;
  std::vector<Sequence> words;
  std::vector<int> labels;
};

/// `users` generated Trace or Symbols words under that dataset's paper
/// configuration (the words the collector CLIs and perfbench serve).
GoldenInput DatasetInput(const std::string& dataset, size_t users,
                         uint64_t seed) {
  GoldenInput in;
  in.config = *collector::GeneratedDatasetConfig(dataset);
  in.config.seed = seed;
  auto word_fn = *collector::GeneratedWordSource(dataset, seed);
  auto label_fn = *collector::GeneratedLabelSource(dataset);
  for (size_t u = 0; u < users; ++u) {
    in.words.push_back(word_fn(u));
    in.labels.push_back(label_fn(u));
  }
  return in;
}

GoldenInput CaseInput(const std::string& name, uint64_t seed) {
  if (name == "symbols_dtw") return DatasetInput("symbols", 3000, seed);
  GoldenInput in = DatasetInput("trace", 3000, seed);
  if (name == "trace_sed") return in;
  if (name == "trace_classify") {
    in.config.num_classes = *collector::GeneratedNumClasses("trace");
  } else if (name == "no_refinement") {
    in.config.disable_refinement = true;
  } else if (name == "no_postprocessing") {
    in.config.disable_postprocessing = true;
  } else if (name == "allow_repeats") {
    in.config.allow_repeats = true;
  } else if (name == "one_length") {
    in.config.ell_low = 5;
    in.config.ell_high = 5;
  } else if (name == "single_symbol") {
    // Every word is one symbol, so ell_S = 1 and P_b is skipped.
    in.config.epsilon = 8.0;
    for (size_t u = 0; u < in.words.size(); ++u) {
      in.words[u] = Sequence{static_cast<Symbol>(u % 7 % 4)};
    }
  }
  if (in.config.num_classes == 0) in.labels.clear();
  return in;
}

struct GoldenShape {
  Sequence shape;
  double frequency;
  int label;
};

struct Golden {
  const char* name;
  uint64_t seed;
  int frequent_length;
  std::vector<GoldenShape> shapes;
  std::vector<GoldenShape> refined_pool;
};

const std::vector<Golden>& Goldens() {
  static const std::vector<Golden> kGoldens = {
    {"symbols_dtw", 2023, 11,
     {{{4, 3, 1, 0, 1, 3, 4, 3, 4, 1, 3}, 0x1.6250e0b536f7p+7, -1},
      {{1, 2, 1, 2, 0, 3, 4, 3, 2, 1, 0}, 0x1.2ce1f3fe8ca7ep+7, -1},
      {{1, 2, 1, 4, 3, 1, 0, 1, 2, 1, 2}, 0x1.e436459e6f6e5p+6, -1},
      {{1, 2, 1, 4, 3, 0, 3, 5, 3, 2, 0}, 0x1.23da24a670b7bp+6, -1},
      {{1, 2, 1, 2, 0, 3, 4, 3, 1, 2, 4}, 0x1.78987cd71d7e2p+4, -1},
      {{0, 1, 0, 3, 5, 1, 2, 0, 2, 1, 0}, 0x1.a7f9993952df7p-1, -1}},
     {{{0, 1, 0, 3, 5, 1, 2, 0, 2, 1, 0}, 0x1.a7f9993952df7p-1, -1},
      {{0, 1, 0, 3, 5, 1, 2, 0, 2, 1, 3}, -0x1.d7f56fb8a7528p+0, -1},
      {{0, 1, 0, 3, 5, 1, 2, 0, 2, 1, 5}, -0x1.7678328e281d7p+2, -1},
      {{1, 2, 1, 2, 0, 3, 4, 3, 1, 2, 4}, 0x1.78987cd71d7e2p+4, -1},
      {{1, 2, 1, 2, 0, 3, 4, 3, 1, 2, 5}, -0x1.d7f56fb8a7528p+0, -1},
      {{1, 2, 1, 2, 0, 3, 4, 3, 2, 1, 0}, 0x1.2ce1f3fe8ca7ep+7, -1},
      {{1, 2, 1, 2, 0, 3, 4, 3, 2, 1, 5}, -0x1.d7f56fb8a7528p+0, -1},
      {{1, 2, 1, 2, 0, 3, 4, 3, 4, 0, 1}, 0x1.45b993f8e882fp+3, -1},
      {{1, 2, 1, 4, 3, 0, 3, 5, 3, 2, 0}, 0x1.23da24a670b7bp+6, -1},
      {{1, 2, 1, 4, 3, 0, 3, 5, 3, 2, 1}, 0x1.1c7a4ee78e1a6p+5, -1},
      {{1, 2, 1, 4, 3, 1, 0, 1, 2, 1, 2}, 0x1.e436459e6f6e5p+6, -1},
      {{1, 2, 1, 4, 3, 1, 0, 1, 2, 1, 4}, 0x1.14faf563a8e87p+1, -1},
      {{1, 2, 1, 4, 3, 1, 0, 1, 2, 1, 5}, 0x1.a7f9993952df7p-1, -1},
      {{1, 2, 1, 4, 3, 1, 0, 2, 1, 2, 3}, 0x1.b8b7327f1d105p+4, -1},
      {{4, 3, 1, 0, 1, 3, 4, 3, 4, 1, 0}, -0x1.20f9eb037e053p+2, -1},
      {{4, 3, 1, 0, 1, 3, 4, 3, 4, 1, 2}, -0x1.d7f56fb8a7528p+0, -1},
      {{4, 3, 1, 0, 1, 3, 4, 3, 4, 1, 3}, 0x1.6250e0b536f7p+7, -1},
      {{4, 3, 1, 0, 1, 3, 4, 5, 4, 1, 5}, -0x1.20f9eb037e053p+2, -1}}},
    {"symbols_dtw", 77, 7,
     {{{2, 1, 2, 3, 4, 3, 1}, 0x1.a7c77ad5e12acp+7, -1},
      {{3, 4, 5, 4, 3, 1, 4}, 0x1.8960199b1ab48p+6, -1},
      {{3, 4, 1, 2, 4, 3, 4}, 0x1.fce5cab38c9a1p+5, -1},
      {{1, 2, 1, 2, 4, 3, 2}, 0x1.f23601c237571p+5, -1},
      {{1, 3, 1, 0, 2, 3, 1}, 0x1.a7678328e281dp+5, -1},
      {{3, 2, 4, 0, 1, 2, 1}, 0x1.e07698dc7cd55p+2, -1}},
     {{{1, 2, 1, 2, 3, 2, 5}, 0x1.bff78478fd18fp+1, -1},
      {{1, 2, 1, 2, 4, 3, 2}, 0x1.f23601c237571p+5, -1},
      {{1, 2, 1, 4, 3, 1, 4}, 0x1.7078b7be3d8f1p+3, -1},
      {{1, 2, 1, 4, 3, 2, 3}, -0x1.d7f56fb8a7528p+0, -1},
      {{1, 2, 1, 4, 3, 2, 4}, 0x1.a7f9993952df7p-1, -1},
      {{1, 3, 1, 0, 2, 3, 1}, 0x1.a7678328e281dp+5, -1},
      {{1, 3, 1, 0, 2, 3, 5}, 0x1.a7f9993952df7p-1, -1},
      {{2, 1, 2, 3, 4, 3, 1}, 0x1.a7c77ad5e12acp+7, -1},
      {{2, 1, 2, 3, 4, 3, 5}, -0x1.20f9eb037e053p+2, -1},
      {{2, 1, 2, 3, 5, 2, 3}, 0x1.9cb7ba378d3ecp+5, -1},
      {{2, 1, 2, 3, 5, 2, 4}, 0x1.357a09c728a4cp+2, -1},
      {{2, 1, 2, 3, 5, 3, 1}, 0x1.f8d5e8271ca28p+4, -1},
      {{2, 1, 2, 3, 5, 3, 5}, -0x1.d7f56fb8a7528p+0, -1},
      {{3, 2, 4, 0, 1, 2, 1}, 0x1.e07698dc7cd55p+2, -1},
      {{3, 2, 4, 0, 2, 1, 2}, -0x1.03f8a31bfde2cp-1, -1},
      {{3, 2, 4, 0, 3, 4, 3}, 0x1.e07698dc7cd55p+2, -1},
      {{3, 4, 1, 2, 4, 3, 4}, 0x1.fce5cab38c9a1p+5, -1},
      {{3, 4, 5, 4, 3, 1, 4}, 0x1.8960199b1ab48p+6, -1}}},
    {"trace_sed", 2023, 8,
     {{{0, 1, 2, 3, 2, 3, 2, 3}, 0x1.906597ce6288cp+7, -1},
      {{0, 1, 0, 2, 1, 2, 1, 0}, 0x1.8963ac73e28fap+7, -1},
      {{1, 2, 1, 2, 1, 2, 0, 3}, 0x1.f0614fc81faf9p-2, -1}},
     {{{0, 1, 0, 2, 1, 0, 3, 2}, 0x1.1a3d2773c70d4p+6, -1},
      {{0, 1, 0, 2, 1, 2, 1, 0}, 0x1.8963ac73e28fap+7, -1},
      {{0, 1, 0, 2, 1, 2, 1, 2}, -0x1.826eaca6fa52fp+1, -1},
      {{0, 1, 0, 2, 1, 2, 1, 3}, 0x1.1df0e908384e2p+7, -1},
      {{0, 1, 0, 2, 1, 2, 3, 2}, 0x1.f0614fc81faf9p-2, -1},
      {{0, 1, 2, 3, 2, 3, 2, 3}, 0x1.906597ce6288cp+7, -1},
      {{0, 2, 0, 3, 2, 3, 2, 0}, -0x1.826eaca6fa52fp+1, -1},
      {{0, 2, 0, 3, 2, 3, 2, 3}, -0x1.56b59dde2741cp+2, -1},
      {{1, 2, 1, 2, 1, 2, 0, 3}, 0x1.f0614fc81faf9p-2, -1}}},
    {"trace_sed", 77, 7,
     {{{0, 1, 0, 3, 2, 3, 2}, 0x1.34d08be1f0dap+8, -1},
      {{3, 1, 0, 1, 2, 0, 1}, 0x1.4a52664562cd6p+7, -1},
      {{0, 1, 2, 3, 1, 3, 0}, -0x1.826eaca6fa52fp+1, -1}},
     {{{0, 1, 0, 3, 2, 1, 2}, 0x1.6908b90e58268p+1, -1},
      {{0, 1, 0, 3, 2, 3, 2}, 0x1.34d08be1f0dap+8, -1},
      {{0, 1, 2, 3, 1, 3, 0}, -0x1.826eaca6fa52fp+1, -1},
      {{3, 1, 0, 1, 0, 2, 0}, -0x1.d9e0ca38a0754p+0, -1},
      {{3, 1, 0, 1, 0, 2, 1}, 0x1.0d5e8271ca294p+4, -1},
      {{3, 1, 0, 1, 0, 2, 3}, 0x1.d06f0ea4c65adp+6, -1},
      {{3, 1, 0, 1, 2, 0, 1}, 0x1.4a52664562cd6p+7, -1},
      {{3, 1, 0, 1, 2, 3, 0}, -0x1.5dc8764698896p-1, -1},
      {{3, 1, 0, 1, 2, 3, 2}, -0x1.0bf67a18d235ap+2, -1}}},
    {"trace_classify", 2023, 8,
     {{{0, 1, 2, 3, 2, 3, 2, 3}, 0x1.951216c8c0affp+7, 1},
      {{0, 1, 0, 2, 1, 2, 1, 0}, 0x1.56d4ef54f9a2bp+7, 2},
      {{0, 1, 0, 2, 1, 2, 1, 3}, 0x1.0c252663a45fbp+7, 0}},
     {{{0, 1, 0, 2, 1, 0, 3, 2}, 0x1.40875d9c526fap+6, 0},
      {{0, 1, 0, 2, 1, 2, 1, 0}, 0x1.56d4ef54f9a2bp+7, 2},
      {{0, 1, 0, 2, 1, 2, 1, 2}, -0x1.64d91b8a7332ep+3, 0},
      {{0, 1, 0, 2, 1, 2, 1, 3}, 0x1.0c252663a45fbp+7, 0},
      {{0, 1, 0, 2, 1, 2, 3, 2}, 0x1.756be690ce79p+3, 1},
      {{0, 1, 2, 3, 2, 3, 2, 3}, 0x1.951216c8c0affp+7, 1},
      {{0, 2, 0, 3, 2, 3, 2, 0}, -0x1.c024c1f3b73e8p+2, 0},
      {{0, 2, 0, 3, 2, 3, 2, 3}, -0x1.3b5e07631faaep+2, 0},
      {{1, 2, 1, 2, 1, 2, 0, 3}, 0x1.756be690ce79p+3, 1}}},
    {"trace_classify", 77, 7,
     {{{0, 1, 0, 3, 2, 3, 2}, 0x1.387d9de41dde3p+8, 1},
      {{3, 1, 0, 1, 2, 0, 1}, 0x1.35a340b0d3bddp+7, 2},
      {{3, 1, 0, 1, 0, 2, 3}, 0x1.a41c6988c41e4p+6, 0}},
     {{{0, 1, 0, 3, 2, 1, 2}, 0x1.af79c5be7d472p+1, 2},
      {{0, 1, 0, 3, 2, 3, 2}, 0x1.387d9de41dde3p+8, 1},
      {{0, 1, 2, 3, 1, 3, 0}, 0x1.e14a58006dcacp+2, 0},
      {{3, 1, 0, 1, 0, 2, 0}, -0x1.3b5e07631faaep+2, 2},
      {{3, 1, 0, 1, 0, 2, 1}, 0x1.3308894882af3p+3, 2},
      {{3, 1, 0, 1, 0, 2, 3}, 0x1.a41c6988c41e4p+6, 0},
      {{3, 1, 0, 1, 2, 0, 1}, 0x1.35a340b0d3bddp+7, 2},
      {{3, 1, 0, 1, 2, 3, 0}, 0x1.756be690ce79p+3, 2},
      {{3, 1, 0, 1, 2, 3, 2}, 0x1.af79c5be7d473p+1, 0}}},
    {"no_refinement", 2023, 8,
     {{{0, 1, 0, 2, 1, 2, 1, 3}, 0x1.9p+4, -1},
      {{0, 1, 2, 3, 2, 3, 2, 3}, 0x1.8p+4, -1},
      {{1, 2, 1, 2, 1, 2, 0, 3}, 0x1.4p+4, -1}},
     {{{0, 1, 0, 2, 1, 0, 3, 2}, 0x1.1p+4, -1},
      {{0, 1, 0, 2, 1, 2, 1, 0}, 0x1.cp+3, -1},
      {{0, 1, 0, 2, 1, 2, 1, 2}, 0x1.1p+4, -1},
      {{0, 1, 0, 2, 1, 2, 1, 3}, 0x1.9p+4, -1},
      {{0, 1, 0, 2, 1, 2, 3, 2}, 0x1.4p+4, -1},
      {{0, 1, 2, 3, 2, 3, 2, 3}, 0x1.8p+4, -1},
      {{0, 2, 0, 3, 2, 3, 2, 0}, 0x1.ap+3, -1},
      {{0, 2, 0, 3, 2, 3, 2, 3}, 0x1.ap+3, -1},
      {{1, 2, 1, 2, 1, 2, 0, 3}, 0x1.4p+4, -1}}},
    {"no_refinement", 77, 7,
     {{{3, 1, 0, 1, 2, 0, 1}, 0x1.9p+4, -1},
      {{0, 1, 0, 3, 2, 3, 2}, 0x1.3p+4, -1},
      {{0, 1, 2, 3, 1, 3, 0}, 0x1.2p+4, -1}},
     {{{0, 1, 0, 3, 2, 1, 2}, 0x1.2p+4, -1},
      {{0, 1, 0, 3, 2, 3, 2}, 0x1.3p+4, -1},
      {{0, 1, 2, 3, 1, 3, 0}, 0x1.2p+4, -1},
      {{3, 1, 0, 1, 0, 2, 0}, 0x1.7p+4, -1},
      {{3, 1, 0, 1, 0, 2, 1}, 0x1.2p+4, -1},
      {{3, 1, 0, 1, 0, 2, 3}, 0x1.2p+4, -1},
      {{3, 1, 0, 1, 2, 0, 1}, 0x1.9p+4, -1},
      {{3, 1, 0, 1, 2, 3, 0}, 0x1.1p+4, -1},
      {{3, 1, 0, 1, 2, 3, 2}, 0x1.4p+4, -1}}},
    {"no_postprocessing", 2023, 8,
     {{{0, 1, 2, 3, 2, 3, 2, 3}, 0x1.906597ce6288cp+7, -1},
      {{0, 1, 0, 2, 1, 2, 1, 0}, 0x1.8963ac73e28fap+7, -1},
      {{0, 1, 0, 2, 1, 2, 1, 3}, 0x1.1df0e908384e2p+7, -1}},
     {{{0, 1, 0, 2, 1, 0, 3, 2}, 0x1.1a3d2773c70d4p+6, -1},
      {{0, 1, 0, 2, 1, 2, 1, 0}, 0x1.8963ac73e28fap+7, -1},
      {{0, 1, 0, 2, 1, 2, 1, 2}, -0x1.826eaca6fa52fp+1, -1},
      {{0, 1, 0, 2, 1, 2, 1, 3}, 0x1.1df0e908384e2p+7, -1},
      {{0, 1, 0, 2, 1, 2, 3, 2}, 0x1.f0614fc81faf9p-2, -1},
      {{0, 1, 2, 3, 2, 3, 2, 3}, 0x1.906597ce6288cp+7, -1},
      {{0, 2, 0, 3, 2, 3, 2, 0}, -0x1.826eaca6fa52fp+1, -1},
      {{0, 2, 0, 3, 2, 3, 2, 3}, -0x1.56b59dde2741cp+2, -1},
      {{1, 2, 1, 2, 1, 2, 0, 3}, 0x1.f0614fc81faf9p-2, -1}}},
    {"no_postprocessing", 77, 7,
     {{{0, 1, 0, 3, 2, 3, 2}, 0x1.34d08be1f0dap+8, -1},
      {{3, 1, 0, 1, 2, 0, 1}, 0x1.4a52664562cd6p+7, -1},
      {{3, 1, 0, 1, 0, 2, 3}, 0x1.d06f0ea4c65adp+6, -1}},
     {{{0, 1, 0, 3, 2, 1, 2}, 0x1.6908b90e58268p+1, -1},
      {{0, 1, 0, 3, 2, 3, 2}, 0x1.34d08be1f0dap+8, -1},
      {{0, 1, 2, 3, 1, 3, 0}, -0x1.826eaca6fa52fp+1, -1},
      {{3, 1, 0, 1, 0, 2, 0}, -0x1.d9e0ca38a0754p+0, -1},
      {{3, 1, 0, 1, 0, 2, 1}, 0x1.0d5e8271ca294p+4, -1},
      {{3, 1, 0, 1, 0, 2, 3}, 0x1.d06f0ea4c65adp+6, -1},
      {{3, 1, 0, 1, 2, 0, 1}, 0x1.4a52664562cd6p+7, -1},
      {{3, 1, 0, 1, 2, 3, 0}, -0x1.5dc8764698896p-1, -1},
      {{3, 1, 0, 1, 2, 3, 2}, -0x1.0bf67a18d235ap+2, -1}}},
    {"allow_repeats", 2023, 8,
     {{{0, 1, 0, 1, 2, 0, 2, 3}, 0x1.a0bf67a18d236p+7, -1},
      {{3, 2, 0, 1, 2, 1, 2, 3}, 0x1.01e93b9e38699p+7, -1},
      {{0, 2, 0, 1, 3, 2, 1, 0}, -0x1.56b59dde2741cp+2, -1}},
     {{{0, 1, 0, 1, 2, 0, 1, 0}, 0x1.1591353771bc7p+6, -1},
      {{0, 1, 0, 1, 2, 0, 2, 0}, -0x1.d9e0ca38a0754p+0, -1},
      {{0, 1, 0, 1, 2, 0, 2, 1}, -0x1.a174c1a37c4dep+2, -1},
      {{0, 1, 0, 1, 2, 0, 2, 3}, 0x1.a0bf67a18d236p+7, -1},
      {{0, 1, 0, 1, 2, 3, 2, 0}, 0x1.5fdf2b763fb42p+3, -1},
      {{0, 1, 0, 1, 2, 3, 2, 3}, 0x1.66ecac88e4391p+5, -1},
      {{0, 1, 2, 3, 2, 1, 2, 3}, 0x1.2e4ab8db62e8dp+7, -1},
      {{0, 2, 0, 1, 3, 2, 1, 0}, -0x1.56b59dde2741cp+2, -1},
      {{3, 2, 0, 1, 2, 1, 2, 3}, 0x1.01e93b9e38699p+7, -1}}},
    {"allow_repeats", 77, 7,
     {{{0, 1, 0, 3, 2, 3, 2}, 0x1.0e45fd7030ffcp+8, -1},
      {{3, 1, 0, 1, 2, 0, 1}, 0x1.6b0605ebb802bp+7, -1},
      {{3, 0, 1, 2, 3, 2, 3}, 0x1.543ce3978ef6p+5, -1}},
     {{{0, 1, 0, 3, 2, 1, 2}, 0x1.6908b90e58268p+1, -1},
      {{0, 1, 0, 3, 2, 3, 2}, 0x1.0e45fd7030ffcp+8, -1},
      {{3, 0, 1, 2, 1, 2, 0}, -0x1.5dc8764698896p-1, -1},
      {{3, 0, 1, 2, 1, 2, 3}, 0x1.6acd6f2874787p+4, -1},
      {{3, 0, 1, 2, 3, 2, 0}, -0x1.a174c1a37c4dep+2, -1},
      {{3, 0, 1, 2, 3, 2, 3}, 0x1.543ce3978ef6p+5, -1},
      {{3, 1, 0, 0, 1, 2, 0}, -0x1.5dc8764698896p-1, -1},
      {{3, 1, 0, 0, 1, 2, 3}, 0x1.605058fcc6c8ap+6, -1},
      {{3, 1, 0, 1, 2, 0, 1}, 0x1.6b0605ebb802bp+7, -1}}},
    {"one_length", 2023, 5,
     {{{0, 1, 2, 1, 2}, 0x1.9c13756537d2ap+7, -1},
      {{3, 1, 2, 3, 2}, -0x1.826eaca6fa52fp+1, -1},
      {{3, 2, 0, 3, 1}, -0x1.0bf67a18d235ap+2, -1}},
     {{{0, 1, 0, 1, 0}, 0x1.3f9cb95671935p+6, -1},
      {{0, 1, 0, 1, 2}, 0x1.93b3c1947140fp+6, -1},
      {{0, 1, 0, 1, 3}, -0x1.5dc8764698896p-1, -1},
      {{0, 1, 2, 1, 2}, 0x1.9c13756537d2ap+7, -1},
      {{1, 0, 1, 0, 1}, 0x1.0b412016e30b2p+7, -1},
      {{1, 0, 1, 2, 3}, 0x1.69a83d75716a2p+6, -1},
      {{1, 0, 1, 3, 2}, -0x1.826eaca6fa52fp+1, -1},
      {{3, 1, 2, 3, 2}, -0x1.826eaca6fa52fp+1, -1},
      {{3, 2, 0, 3, 1}, -0x1.0bf67a18d235ap+2, -1}}},
    {"one_length", 77, 5,
     {{{0, 1, 2, 3, 2}, 0x1.95118a0ab7d98p+7, -1},
      {{3, 0, 1, 2, 3}, 0x1.02e16c461c797p+6, -1},
      {{3, 1, 0, 1, 2}, -0x1.0bf67a18d235ap+2, -1}},
     {{{0, 1, 0, 1, 2}, 0x1.48f49dcf1c34dp+6, -1},
      {{0, 1, 2, 1, 0}, 0x1.4efe5881b81e2p+7, -1},
      {{0, 1, 2, 1, 2}, 0x1.fe870099023edp+1, -1},
      {{0, 1, 2, 3, 1}, 0x1.f3130f9ae3afdp+5, -1},
      {{0, 1, 2, 3, 2}, 0x1.95118a0ab7d98p+7, -1},
      {{3, 0, 1, 2, 1}, 0x1.581da6371f356p+4, -1},
      {{3, 0, 1, 2, 3}, 0x1.02e16c461c797p+6, -1},
      {{3, 0, 1, 3, 2}, -0x1.5dc8764698896p-1, -1},
      {{3, 1, 0, 1, 2}, -0x1.0bf67a18d235ap+2, -1}}},
    {"single_symbol", 2023, 1,
     {{{1}, 0x1.781a1da55bf0cp+7, -1},
      {{2}, 0x1.32020fd06c4fap+7, -1},
      {{3}, 0x1.57a807edf2ba3p+6, -1}},
     {{{0}, 0x1.5a0fce933e629p+7, -1},
      {{1}, 0x1.781a1da55bf0cp+7, -1},
      {{2}, 0x1.32020fd06c4fap+7, -1},
      {{3}, 0x1.57a807edf2ba3p+6, -1}}},
    {"single_symbol", 77, 1,
     {{{1}, 0x1.6e16adf4a76cp+7, -1},
      {{2}, 0x1.21fc904f4b7b4p+7, -1},
      {{3}, 0x1.6baee74f5bc3ap+6, -1}},
     {{{0}, 0x1.6a154e145f36fp+7, -1},
      {{1}, 0x1.6e16adf4a76cp+7, -1},
      {{2}, 0x1.21fc904f4b7b4p+7, -1},
      {{3}, 0x1.6baee74f5bc3ap+6, -1}}}
  };
  return kGoldens;
}

void ExpectShapes(const std::vector<core::ShapeCandidate>& got,
                  const std::vector<GoldenShape>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].shape, want[i].shape) << what << " " << i;
    // Bit-exact: the debiased counts must not move by one ulp.
    EXPECT_EQ(got[i].frequency, want[i].frequency) << what << " " << i;
    EXPECT_EQ(got[i].label, want[i].label) << what << " " << i;
  }
}

class PrivShapeGoldenTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PrivShapeGoldenTest, RunMatchesFrozenOutput) {
  const Golden& golden = Goldens()[GetParam()];
  GoldenInput in = CaseInput(golden.name, golden.seed);
  auto result = core::PrivShape(in.config)
                    .Run(in.words, in.labels.empty() ? nullptr : &in.labels);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->frequent_length, golden.frequent_length);
  ExpectShapes(result->shapes, golden.shapes, "shapes");
  ExpectShapes(result->refined_pool, golden.refined_pool, "refined_pool");
}

INSTANTIATE_TEST_SUITE_P(
    Frozen, PrivShapeGoldenTest, ::testing::Range<size_t>(0, 16),
    [](const ::testing::TestParamInfo<size_t>& param) {
      const Golden& golden = Goldens()[param.param];
      return std::string(golden.name) + "_" + std::to_string(golden.seed);
    });

}  // namespace
}  // namespace privshape
