#include "core/triple_selection.h"

#include <algorithm>
#include <numeric>

#include "obs/metrics.h"

namespace crowd::core {

namespace {

// Pairs the ordered candidate list front-to-back: the head is paired
// with the first later candidate sharing >= min_overlap tasks with it
// (all candidates already share >= min_overlap tasks with the target).
std::vector<WorkerPair> PairInOrder(const data::OverlapIndex& overlap,
                                    std::vector<data::WorkerId> candidates,
                                    size_t min_overlap) {
  std::vector<WorkerPair> pairs;
  while (candidates.size() >= 2) {
    data::WorkerId head = candidates.front();
    size_t partner_pos = 0;
    for (size_t i = 1; i < candidates.size(); ++i) {
      if (overlap.CommonCount(head, candidates[i]) >= min_overlap) {
        partner_pos = i;
        break;
      }
    }
    if (partner_pos == 0) {
      // Head cannot be paired with anyone; drop it.
      if (obs::Registry* r = obs::MetricsRegistry()) {
        static obs::Counter* const dropped = r->GetCounter(
            "crowdeval_core_pairing_unpairable_total",
            "candidate peers dropped because no remaining peer meets the "
            "pair overlap threshold with them");
        dropped->Increment();
      }
      candidates.erase(candidates.begin());
      continue;
    }
    pairs.emplace_back(head, candidates[partner_pos]);
    candidates.erase(candidates.begin() + static_cast<long>(partner_pos));
    candidates.erase(candidates.begin());
  }
  return pairs;
}

std::vector<data::WorkerId> CandidatesFor(
    const data::OverlapIndex& overlap, data::WorkerId target,
    size_t min_overlap) {
  std::vector<data::WorkerId> candidates;
  for (data::WorkerId w = 0; w < overlap.num_workers(); ++w) {
    if (w != target && overlap.CommonCount(target, w) >= min_overlap) {
      candidates.push_back(w);
    }
  }
  return candidates;
}

}  // namespace

std::vector<WorkerPair> GreedyPairs(const data::OverlapIndex& overlap,
                                    data::WorkerId target,
                                    size_t min_overlap) {
  std::vector<data::WorkerId> candidates =
      CandidatesFor(overlap, target, min_overlap);
  // Descending overlap with the target; ties by id for determinism.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](data::WorkerId a, data::WorkerId b) {
                     return overlap.CommonCount(target, a) >
                            overlap.CommonCount(target, b);
                   });
  return PairInOrder(overlap, std::move(candidates), min_overlap);
}

std::vector<WorkerPair> RandomPairs(const data::OverlapIndex& overlap,
                                    data::WorkerId target, uint64_t seed) {
  std::vector<data::WorkerId> candidates = CandidatesFor(overlap, target, 1);
  // SplitMix64-keyed Fisher-Yates; self-contained so that crowd_core
  // does not depend on crowd_rng.
  uint64_t state = seed ^ 0x9e3779b97f4a7c15ULL;
  auto next = [&state]() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  for (size_t i = candidates.size(); i > 1; --i) {
    size_t j = static_cast<size_t>(next() % i);
    std::swap(candidates[i - 1], candidates[j]);
  }
  return PairInOrder(overlap, std::move(candidates), 1);
}

}  // namespace crowd::core
