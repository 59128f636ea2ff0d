// Shared option and result types for the binary estimators (Algorithms
// A1 and A2).

#ifndef CROWD_CORE_TYPES_H_
#define CROWD_CORE_TYPES_H_

#include <cstddef>
#include <cstdint>

#include "data/response_matrix.h"
#include "stats/intervals.h"

namespace crowd::core {

/// How the per-triple estimates are combined in Step 3 of Algorithm A2.
enum class WeightScheme {
  /// Lemma 5 minimum-variance weights, A = C^{-1}1 / ||C^{-1}1||_1.
  kOptimal,
  /// a_k = 1/l for all triples (the unoptimized scheme of Fig. 2(c)).
  kUniform,
};

/// What to do when a triple's raw agreement rate falls at or below the
/// 1/2 singularity of the triangulation formula.
enum class SingularityPolicy {
  /// The paper's behavior: that triple's estimate fails (Section III-C
  /// notes the failure probability decays exponentially in the task
  /// count). In the m-worker method the triple is dropped and the
  /// worker is evaluated from the remaining triples; in the 3-worker
  /// method the evaluation fails.
  kDropTriple,
  /// Clamp the rate to 0.5 + margin: the estimate survives with a
  /// deliberately inflated deviation (the Lemma 2 derivatives blow up
  /// near the singularity), so downstream weighting de-emphasizes it.
  kClampInflate,
};

/// How peers are paired into triples (Algorithm A2 step 1).
enum class PairingStrategy {
  /// Section III-C1's greedy overlap-descending pairing.
  kGreedy,
  /// Uniformly random valid pairing (ablation baseline).
  kRandom,
};

/// Options for the binary-task estimators.
struct BinaryOptions {
  /// Nominal coverage of the emitted intervals.
  double confidence = 0.95;
  /// Agreement-rate clamp margin above the 1/2 singularity
  /// (see core/agreement.h for the rationale).
  double min_agreement_margin = 1e-6;
  /// Behavior at the singularity (see SingularityPolicy).
  SingularityPolicy singularity = SingularityPolicy::kDropTriple;
  /// Triple combination scheme (Algorithm A2 step 3).
  WeightScheme weights = WeightScheme::kOptimal;
  /// Ridge jitter added to the triple covariance diagonal before
  /// inverting it in Lemma 5; guards near-singular matrices.
  double covariance_ridge = 1e-12;
  /// Peer pairing strategy (Algorithm A2 step 1).
  PairingStrategy pairing = PairingStrategy::kGreedy;
  /// Seed for PairingStrategy::kRandom.
  uint64_t pairing_seed = 1;
  /// Worker-level parallelism of the m-worker loop: 1 = serial
  /// (default), 0 = one thread per hardware core, n = n threads. The
  /// output is bit-identical for every value (see core/evaluate_pool.h).
  size_t num_threads = 1;
};

/// \brief The evaluation result for one worker.
struct WorkerAssessment {
  data::WorkerId worker = 0;
  /// Combined point estimate of the error rate.
  double error_rate = 0.0;
  /// Standard deviation of the estimate (Theorem 1).
  double deviation = 0.0;
  /// The c-confidence interval (unclamped; may extend past [0, 1/2]).
  stats::ConfidenceInterval interval;
  /// Number of triples that contributed (1 in the 3-worker case).
  size_t num_triples = 0;
  /// True when any contributing agreement rate had to be clamped away
  /// from the 1/2 singularity — a sign the worker pool contains
  /// spammers and the interval should be treated with suspicion.
  bool any_clamped = false;
};

}  // namespace crowd::core

#endif  // CROWD_CORE_TYPES_H_
