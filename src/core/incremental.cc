#include "core/incremental.h"

#include <utility>

#include "util/string_util.h"

namespace crowd::core {

IncrementalEvaluator::IncrementalEvaluator(data::ResponseMatrix responses,
                                           BinaryOptions options)
    : options_(options),
      responses_(std::move(responses)),
      overlap_(responses_),
      dirty_epoch_(responses_.num_workers(), 1),
      cached_epoch_(responses_.num_workers(), 0),
      cache_(responses_.num_workers()) {
  CROWD_DCHECK(responses_.arity() == 2);
}

IncrementalEvaluator::IncrementalEvaluator(size_t num_workers,
                                           size_t num_tasks,
                                           BinaryOptions options)
    : IncrementalEvaluator(data::ResponseMatrix(num_workers, num_tasks, 2),
                           options) {}

Status IncrementalEvaluator::AddResponse(data::WorkerId w, data::TaskId t,
                                         data::Response response,
                                         bool* changed) {
  // The daemon feeds this untrusted input; every argument is checked
  // here (not just in CROWD_DCHECK-guarded accessors) and the message
  // names the offending value so clients can act on the error.
  if (w >= responses_.num_workers()) {
    return Status::Invalid(StrFormat(
        "AddResponse: worker id %zu out of range [0, %zu)", w,
        responses_.num_workers()));
  }
  if (t >= responses_.num_tasks()) {
    return Status::Invalid(
        StrFormat("AddResponse: task id %zu out of range [0, %zu)", t,
                  responses_.num_tasks()));
  }
  if (response < 0 || response >= responses_.arity()) {
    return Status::Invalid(StrFormat(
        "AddResponse: response %d for worker %zu, task %zu outside "
        "[0, %d)",
        response, w, t, responses_.arity()));
  }
  std::optional<data::Response> previous = responses_.Get(w, t);
  if (previous.has_value() && *previous == response) {
    if (changed != nullptr) *changed = false;
    return Status::OK();
  }
  CROWD_RETURN_NOT_OK(responses_.Set(w, t, response));
  CROWD_RETURN_NOT_OK(overlap_.ApplyResponse(w, t, previous));
  MarkTaskDirty(t, w);
  if (changed != nullptr) *changed = true;
  return Status::OK();
}

void IncrementalEvaluator::MarkTaskDirty(data::TaskId t,
                                         data::WorkerId responder) {
  ++epoch_counter_;
  const size_t m = responses_.num_workers();
  // The response only changed statistics joining the responder with
  // co-attempters of task t: the pair counts c/a_{responder,u} for
  // each co-attempter u, and the triple counts c_{responder,u1,u2}.
  // Worker v's evaluation reads pair/triple statistics over
  // {v} ∪ peers(v), where every peer shares at least one task with v.
  // So v must be invalidated iff
  //   (a) v is the responder,
  //   (b) v attempted t itself (its pair with the responder changed),
  //   (c) v can read a changed peer-peer statistic: the responder and
  //       some other co-attempter of t are both potential peers of v.
  // Workers merely sharing some task with the responder but failing
  // all three conditions keep their caches — the over-invalidation
  // this replaced dirtied every one of them.
  std::vector<data::WorkerId> co_attempters;
  for (data::WorkerId v = 0; v < m; ++v) {
    if (v != responder && overlap_.Attempted(v, t)) {
      co_attempters.push_back(v);
    }
  }
  for (data::WorkerId v = 0; v < m; ++v) {
    bool affected = v == responder || overlap_.Attempted(v, t);
    if (!affected && overlap_.CommonCount(v, responder) > 0) {
      for (data::WorkerId u : co_attempters) {
        if (overlap_.CommonCount(v, u) > 0) {
          affected = true;
          break;
        }
      }
    }
    if (affected) dirty_epoch_[v] = epoch_counter_;
  }
}

Result<WorkerAssessment> IncrementalEvaluator::EvaluateUncached(
    const data::OverlapIndex& overlap, data::WorkerId worker) const {
  return EvaluateWorker(overlap, worker, options_);
}

IncrementalEvaluator::Pass IncrementalEvaluator::CaptureRange(
    data::WorkerId first, size_t count, IndexView view) const {
  Pass pass;
  pass.first = first;
  pass.results.resize(count);
  for (size_t i = 0; i < count; ++i) {
    const data::WorkerId w = first + i;
    if (IsStale(w)) {
      pass.stale.emplace_back(w, dirty_epoch_[w]);
    } else {
      pass.results[i] = *cache_[w];
    }
  }
  if (!pass.stale.empty()) {
    if (view == IndexView::kCopy) {
      pass.copy = std::make_unique<const data::OverlapIndex>(overlap_);
      pass.overlap = pass.copy.get();
    } else {
      pass.overlap = &overlap_;
    }
  }
  return pass;
}

Result<IncrementalEvaluator::Pass> IncrementalEvaluator::Capture(
    data::WorkerId worker, IndexView view) const {
  if (worker >= responses_.num_workers()) {
    return Status::Invalid("Evaluate: worker id out of range");
  }
  return CaptureRange(worker, 1, view);
}

IncrementalEvaluator::Pass IncrementalEvaluator::CaptureAll(
    IndexView view) const {
  return CaptureRange(0, responses_.num_workers(), view);
}

const Result<WorkerAssessment>& IncrementalEvaluator::FillSlot(
    Pass* pass, size_t i) const {
  std::optional<Result<WorkerAssessment>>& slot = pass->results[i];
  if (!slot.has_value()) {
    slot = EvaluateUncached(*pass->overlap, pass->first + i);
  }
  return *slot;
}

Result<WorkerAssessment> IncrementalEvaluator::Run(Pass* pass) const {
  CROWD_DCHECK(pass->results.size() == 1);
  return FillSlot(pass, 0);
}

MWorkerResult IncrementalEvaluator::RunAll(Pass* pass) const {
  CROWD_DCHECK(pass->first == 0);
  // Each body writes only its own slot.
  return EvaluatePool<WorkerAssessment>(
      pass->results.size(), options_.num_threads,
      [this, pass](data::WorkerId w) -> const Result<WorkerAssessment>& {
        return FillSlot(pass, w);
      });
}

void IncrementalEvaluator::Commit(Pass pass) {
  for (const auto& [w, epoch] : pass.stale) {
    std::optional<Result<WorkerAssessment>>& slot =
        pass.results[w - pass.first];
    // Dropped: a later response dirtied the worker, so the result is
    // out of date (a newer pass may have cached a fresh one), or the
    // evaluation threw.
    if (dirty_epoch_[w] != epoch || !slot.has_value()) continue;
    cache_[w] = std::move(slot);
    cached_epoch_[w] = epoch;
  }
}

Result<WorkerAssessment> IncrementalEvaluator::Evaluate(
    data::WorkerId worker) {
  CROWD_ASSIGN_OR_RETURN(Pass pass, Capture(worker, IndexView::kLive));
  Result<WorkerAssessment> result = Run(&pass);
  Commit(std::move(pass));
  return result;
}

MWorkerResult IncrementalEvaluator::EvaluateAll() {
  Pass pass = CaptureAll(IndexView::kLive);
  MWorkerResult result = RunAll(&pass);
  Commit(std::move(pass));
  return result;
}

size_t IncrementalEvaluator::DirtyWorkerCount() const {
  size_t count = 0;
  for (data::WorkerId w = 0; w < responses_.num_workers(); ++w) {
    if (IsStale(w)) ++count;
  }
  return count;
}

}  // namespace crowd::core
