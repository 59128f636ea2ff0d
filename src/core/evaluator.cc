#include "core/evaluator.h"

#include <algorithm>

#include "util/string_util.h"

namespace crowd::core {

Result<CrowdEvaluator::BinaryReport> CrowdEvaluator::EvaluateBinary(
    const data::ResponseMatrix& responses) const {
  BinaryReport report;
  if (!config_.prefilter_spammers) {
    CROWD_ASSIGN_OR_RETURN(static_cast<MWorkerResult&>(report),
                           MWorkerEvaluate(responses, config_.binary));
    return report;
  }

  CROWD_ASSIGN_OR_RETURN(SpammerFilterResult filtered,
                         FilterSpammers(responses, config_.spammer));
  report.removed_spammers = filtered.removed;
  CROWD_ASSIGN_OR_RETURN(static_cast<MWorkerResult&>(report),
                         MWorkerEvaluate(filtered.filtered, config_.binary));
  // Map filtered indices back to the original worker ids.
  for (WorkerAssessment& a : report.assessments) {
    a.worker = filtered.kept[a.worker];
  }
  for (auto& [worker, status] : report.failures) {
    worker = filtered.kept[worker];
  }
  // Pruned workers must not silently vanish from the report: record
  // each one as a failure with the dedicated status so that
  // assessments ∪ failures covers every worker of the input.
  for (data::WorkerId w : report.removed_spammers) {
    report.failures.emplace_back(
        w, Status::FilteredOut(StrFormat(
               "worker %zu removed by the spammer pre-filter "
               "(majority-vote proxy error above %.2f)",
               w, config_.spammer.threshold)));
  }
  std::sort(report.failures.begin(), report.failures.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return report;
}

Result<KaryResult> CrowdEvaluator::EvaluateKaryTriple(
    const data::ResponseMatrix& responses, data::WorkerId w1,
    data::WorkerId w2, data::WorkerId w3) const {
  return KaryEvaluate(responses, w1, w2, w3, config_.kary);
}

std::vector<data::WorkerId> CrowdEvaluator::WorkersConfidentlyBelow(
    const std::vector<WorkerAssessment>& assessments, double threshold) {
  std::vector<data::WorkerId> out;
  for (const auto& a : assessments) {
    if (a.interval.hi < threshold) out.push_back(a.worker);
  }
  return out;
}

std::vector<data::WorkerId> CrowdEvaluator::WorkersConfidentlyAbove(
    const std::vector<WorkerAssessment>& assessments, double threshold) {
  std::vector<data::WorkerId> out;
  for (const auto& a : assessments) {
    if (a.interval.lo > threshold) out.push_back(a.worker);
  }
  return out;
}

}  // namespace crowd::core
