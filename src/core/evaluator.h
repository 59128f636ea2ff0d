// CrowdEvaluator: the top-level façade tying the pipeline together —
// optional spammer pre-filtering (Section III-E2), the m-worker binary
// estimator (Algorithm A2) and the k-ary estimator (Algorithm A3) —
// plus the hire/fire decision helpers the paper's introduction
// motivates (act only when the whole interval clears a threshold).

#ifndef CROWD_CORE_EVALUATOR_H_
#define CROWD_CORE_EVALUATOR_H_

#include <utility>
#include <vector>

#include "core/kary_estimator.h"
#include "core/kary_m_worker.h"
#include "core/m_worker.h"
#include "core/spammer_filter.h"
#include "core/types.h"
#include "data/dataset.h"
#include "util/result.h"

namespace crowd::core {

/// \brief One-stop evaluation entry point.
class CrowdEvaluator {
 public:
  struct Config {
    BinaryOptions binary;
    KaryOptions kary;
    SpammerFilterOptions spammer;
    /// Run the majority-vote spammer filter before the binary
    /// estimator (recommended on real data; see Figures 3 and 4).
    bool prefilter_spammers = false;
  };

  CrowdEvaluator() = default;
  explicit CrowdEvaluator(Config config) : config_(std::move(config)) {}

  const Config& config() const { return config_; }

  /// \brief Binary evaluation report. Worker ids refer to the
  /// *original* matrix even when the spammer filter re-indexed it.
  /// Workers removed by the spammer pre-filter appear among the
  /// failures (with a Status::FilteredOut), so `assessments ∪
  /// failures` covers every worker of the input matrix.
  struct BinaryReport : MWorkerResult {
    /// Workers removed by the pre-filter (empty when disabled).
    std::vector<data::WorkerId> removed_spammers;
  };

  /// \brief Evaluates every worker of a binary dataset (Algorithm A2,
  /// optionally preceded by the spammer filter).
  Result<BinaryReport> EvaluateBinary(
      const data::ResponseMatrix& responses) const;

  /// \brief Evaluates a k-ary worker triple (Algorithm A3).
  Result<KaryResult> EvaluateKaryTriple(
      const data::ResponseMatrix& responses, data::WorkerId w1,
      data::WorkerId w2, data::WorkerId w3) const;

  /// \brief Workers whose entire interval lies below `threshold` —
  /// confidently good workers (retain/hire).
  static std::vector<data::WorkerId> WorkersConfidentlyBelow(
      const std::vector<WorkerAssessment>& assessments, double threshold);

  /// \brief Workers whose entire interval lies above `threshold` —
  /// confidently bad workers (retrain/fire).
  static std::vector<data::WorkerId> WorkersConfidentlyAbove(
      const std::vector<WorkerAssessment>& assessments, double threshold);

 private:
  Config config_;
};

}  // namespace crowd::core

#endif  // CROWD_CORE_EVALUATOR_H_
