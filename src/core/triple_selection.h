// Step 1 of Algorithm A2: splitting the peers of the evaluated worker
// into pairs (Section III-C1). The greedy strategy pairs peers with
// large task overlap first — because the Lemma 5 weights can emphasize
// good triples, a few excellent triples beat many mediocre ones.

#ifndef CROWD_CORE_TRIPLE_SELECTION_H_
#define CROWD_CORE_TRIPLE_SELECTION_H_

#include <utility>
#include <vector>

#include "data/overlap_index.h"
#include "util/result.h"

namespace crowd::core {

using WorkerPair = std::pair<data::WorkerId, data::WorkerId>;

/// \brief Greedy pairing for evaluating `target` (Section III-C1):
/// peers sharing at least `min_overlap` tasks with `target` are sorted
/// by descending overlap with it; the head of the list is paired with
/// the first remaining peer that shares at least `min_overlap` tasks
/// with the head. Peers that cannot be paired are dropped. Returns the
/// (possibly empty) pair list. Algorithm A2 uses the default threshold
/// of one task; the m-worker k-ary evaluation passes its stronger
/// KaryMWorkerOptions::min_pair_overlap.
std::vector<WorkerPair> GreedyPairs(const data::OverlapIndex& overlap,
                                    data::WorkerId target,
                                    size_t min_overlap = 1);

/// \brief Baseline strategy for the ablation bench: peers are paired
/// in the order produced by a deterministic shuffle keyed on `seed`,
/// subject to the same validity constraint (each pair member shares a
/// task with `target` and with its partner).
std::vector<WorkerPair> RandomPairs(const data::OverlapIndex& overlap,
                                    data::WorkerId target, uint64_t seed);

}  // namespace crowd::core

#endif  // CROWD_CORE_TRIPLE_SELECTION_H_
