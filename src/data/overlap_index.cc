#include "data/overlap_index.h"

#include "util/bitops.h"
#include "util/string_util.h"

namespace crowd::data {

OverlapIndex::OverlapIndex(const ResponseMatrix& responses)
    : responses_(responses),
      num_workers_(responses.num_workers()),
      num_tasks_(responses.num_tasks()),
      words_per_worker_((num_tasks_ + 63) / 64),
      attempt_bits_(num_workers_ * words_per_worker_, 0),
      pair_common_(num_workers_ * num_workers_, 0),
      pair_agree_(num_workers_ * num_workers_, 0),
      pair_rate_(num_workers_ * num_workers_, 0.0) {
  CROWD_CHECK_LE(num_tasks_, kMaxTasks);
  // Per-(worker, response value) bitmasks, concatenated; each attempt
  // bit is set in exactly one value plane.
  const size_t arity = static_cast<size_t>(responses.arity());
  std::vector<uint64_t> value_bits(num_workers_ * arity * words_per_worker_,
                                   0);
  auto value_row = [&](WorkerId w, size_t r) {
    return value_bits.data() + (w * arity + r) * words_per_worker_;
  };
  for (WorkerId w = 0; w < num_workers_; ++w) {
    for (TaskId t = 0; t < num_tasks_; ++t) {
      auto r = responses.Get(w, t);
      if (!r.has_value()) continue;
      const uint64_t mask = uint64_t{1} << (t % 64);
      AttemptBits(w)[t / 64] |= mask;
      value_row(w, static_cast<size_t>(*r))[t / 64] |= mask;
    }
  }
  for (WorkerId i = 0; i < num_workers_; ++i) {
    const uint64_t* ai = AttemptBits(i);
    for (WorkerId j = i; j < num_workers_; ++j) {
      const size_t common =
          util::AndPopcount(ai, AttemptBits(j), words_per_worker_);
      size_t agree = 0;
      for (size_t r = 0; r < arity; ++r) {
        agree += util::AndPopcount(value_row(i, r), value_row(j, r),
                                   words_per_worker_);
      }
      pair_common_[Index(i, j)] = pair_common_[Index(j, i)] =
          static_cast<uint32_t>(common);
      pair_agree_[Index(i, j)] = pair_agree_[Index(j, i)] =
          static_cast<uint32_t>(agree);
      UpdateRate(i, j);
    }
  }
}

void OverlapIndex::UpdateRate(WorkerId i, WorkerId j) {
  const uint32_t common = pair_common_[Index(i, j)];
  pair_rate_[Index(i, j)] = pair_rate_[Index(j, i)] =
      common == 0 ? 0.0
                  : static_cast<double>(pair_agree_[Index(i, j)]) /
                        static_cast<double>(common);
}

Result<double> OverlapIndex::AgreementRate(WorkerId i, WorkerId j) const {
  size_t common = CommonCount(i, j);
  if (common == 0) {
    return Status::InsufficientData(StrFormat(
        "workers %zu and %zu have no tasks in common", i, j));
  }
  return pair_rate_[Index(i, j)];
}

Status OverlapIndex::ApplyResponse(WorkerId w, TaskId t,
                                   std::optional<Response> previous) {
  if (w >= num_workers_ || t >= num_tasks_) {
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
      } else {
        continue;  // Neither count changed, so neither did the rate.
      }
    }
    UpdateRate(w, v);
  }
  if (newly_attempted) {
    // Self counts track the worker's attempted-task total.
    ++pair_common_[Index(w, w)];
    ++pair_agree_[Index(w, w)];
    UpdateRate(w, w);
    AttemptBits(w)[t / 64] |= uint64_t{1} << (t % 64);
  }
  return Status::OK();
}

size_t OverlapIndex::TripleCommonCount(WorkerId i, WorkerId j,
                                       WorkerId k) const {
  CROWD_DCHECK(i < num_workers_ && j < num_workers_ && k < num_workers_);
  return util::AndPopcount(AttemptBits(i), AttemptBits(j), AttemptBits(k),
                           words_per_worker_);
}

size_t OverlapIndex::SharedAttemptRows(WorkerId i,
                                       const std::vector<WorkerId>& peers,
                                       std::vector<uint64_t>* rows) const {
  CROWD_DCHECK(i < num_workers_);
  const uint64_t* ai = AttemptBits(i);
  // A_i & A_p gathered to A_i's set bits is A_p gathered to them.
  const size_t width =
      (util::AndPopcount(ai, ai, words_per_worker_) + 63) / 64;
  rows->resize(peers.size() * width);
  uint64_t* out = rows->data();
  for (WorkerId p : peers) {
    CROWD_DCHECK(p < num_workers_);
    util::GatherBits(AttemptBits(p), ai, words_per_worker_, out);
    out += width;
  }
  return width;
}

}  // namespace crowd::data
