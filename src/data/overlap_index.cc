#include "data/overlap_index.h"

#include "util/bitops.h"
#include "util/string_util.h"

namespace crowd::data {

OverlapIndex::OverlapIndex(const ResponseMatrix& responses)
    : responses_(responses),
      num_workers_(responses.num_workers()),
      arity_(static_cast<size_t>(responses.arity())),
      words_per_worker_((responses.num_tasks() + 63) / 64),
      attempt_bits_(num_workers_ * words_per_worker_, 0),
      value_bits_(num_workers_ * arity_ * words_per_worker_, 0),
      pair_common_(num_workers_ * num_workers_, 0),
      pair_agree_(num_workers_ * num_workers_, 0) {
  const size_t n = responses.num_tasks();
  for (WorkerId w = 0; w < num_workers_; ++w) {
    for (TaskId t = 0; t < n; ++t) {
      auto r = responses.Get(w, t);
      if (!r.has_value()) continue;
      const uint64_t mask = uint64_t{1} << (t % 64);
      AttemptBits(w)[t / 64] |= mask;
      ValueBits(w, static_cast<size_t>(*r))[t / 64] |= mask;
    }
  }
  for (WorkerId i = 0; i < num_workers_; ++i) {
    const uint64_t* ai = AttemptBits(i);
    for (WorkerId j = i; j < num_workers_; ++j) {
      const size_t common =
          util::AndPopcount(ai, AttemptBits(j), words_per_worker_);
      size_t agree = 0;
      for (size_t r = 0; r < arity_; ++r) {
        agree += util::AndPopcount(ValueBits(i, r), ValueBits(j, r),
                                   words_per_worker_);
      }
      pair_common_[Index(i, j)] = pair_common_[Index(j, i)] = common;
      pair_agree_[Index(i, j)] = pair_agree_[Index(j, i)] = agree;
    }
  }
}

Result<double> OverlapIndex::AgreementRate(WorkerId i, WorkerId j) const {
  size_t common = CommonCount(i, j);
  if (common == 0) {
    return Status::InsufficientData(StrFormat(
        "workers %zu and %zu have no tasks in common", i, j));
  }
  return static_cast<double>(AgreementCount(i, j)) /
         static_cast<double>(common);
}

Status OverlapIndex::ApplyResponse(WorkerId w, TaskId t,
                                   std::optional<Response> previous) {
  if (w >= num_workers_ || t >= responses_.num_tasks()) {
    return Status::Invalid("ApplyResponse: index out of range");
  }
  auto current = responses_.Get(w, t);
  if (!current.has_value()) {
    return Status::Invalid(
        "ApplyResponse must be called after the response was set");
  }
  const bool newly_attempted = !previous.has_value();
  if (!newly_attempted && *previous == *current) return Status::OK();

  for (WorkerId v = 0; v < num_workers_; ++v) {
    if (v == w) continue;
    auto rv = responses_.Get(v, t);
    if (!rv.has_value()) continue;
    size_t idx = Index(w, v);
    size_t idx_t = Index(v, w);
    if (newly_attempted) {
      ++pair_common_[idx];
      ++pair_common_[idx_t];
      if (*rv == *current) {
        ++pair_agree_[idx];
        ++pair_agree_[idx_t];
      }
    } else {
      // Overwrite: common count unchanged, agreement may flip.
      if (*rv == *previous && *rv != *current) {
        --pair_agree_[idx];
        --pair_agree_[idx_t];
      } else if (*rv != *previous && *rv == *current) {
        ++pair_agree_[idx];
        ++pair_agree_[idx_t];
      }
    }
  }
  const size_t word = t / 64;
  const uint64_t mask = uint64_t{1} << (t % 64);
  if (newly_attempted) {
    // Self counts track the worker's attempted-task total.
    ++pair_common_[Index(w, w)];
    ++pair_agree_[Index(w, w)];
    AttemptBits(w)[word] |= mask;
  } else {
    ValueBits(w, static_cast<size_t>(*previous))[word] &= ~mask;
  }
  ValueBits(w, static_cast<size_t>(*current))[word] |= mask;
  return Status::OK();
}

size_t OverlapIndex::TripleCommonCount(WorkerId i, WorkerId j,
                                       WorkerId k) const {
  CROWD_DCHECK(i < num_workers_ && j < num_workers_ && k < num_workers_);
  return util::AndPopcount(AttemptBits(i), AttemptBits(j), AttemptBits(k),
                           words_per_worker_);
}

void OverlapIndex::SharedAttemptRows(WorkerId i,
                                     const std::vector<WorkerId>& peers,
                                     std::vector<uint64_t>* rows) const {
  CROWD_DCHECK(i < num_workers_);
  rows->resize(peers.size() * words_per_worker_);
  const uint64_t* ai = AttemptBits(i);
  uint64_t* out = rows->data();
  for (WorkerId p : peers) {
    CROWD_DCHECK(p < num_workers_);
    const uint64_t* ap = AttemptBits(p);
    for (size_t word = 0; word < words_per_worker_; ++word) {
      out[word] = ai[word] & ap[word];
    }
    out += words_per_worker_;
  }
}

}  // namespace crowd::data
