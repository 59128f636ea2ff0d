#include "core/counts_tensor.h"

#include <bit>

#include "util/string_util.h"

namespace crowd::core {

CountsTensor::CountsTensor(int arity)
    : arity_(arity),
      cells_(static_cast<size_t>(arity + 1) * (arity + 1) * (arity + 1),
             0.0) {
  CROWD_CHECK_GE(arity, 2);
}

Result<CountsTensor> CountsTensor::FromResponses(
    const data::ResponseMatrix& responses, data::WorkerId w1,
    data::WorkerId w2, data::WorkerId w3) {
  if (w1 == w2 || w1 == w3 || w2 == w3) {
    return Status::Invalid("CountsTensor requires three distinct workers");
  }
  for (data::WorkerId w : {w1, w2, w3}) {
    if (w >= responses.num_workers()) {
      return Status::Invalid(StrFormat("worker id %zu out of range", w));
    }
  }
  CountsTensor tensor(responses.arity());
  for (data::TaskId t = 0; t < responses.num_tasks(); ++t) {
    auto r1 = responses.Get(w1, t);
    auto r2 = responses.Get(w2, t);
    auto r3 = responses.Get(w3, t);
    CountsCell cell{r1.has_value() ? *r1 + 1 : 0,
                    r2.has_value() ? *r2 + 1 : 0,
                    r3.has_value() ? *r3 + 1 : 0};
    tensor.at(cell) += 1.0;
  }
  return tensor;
}

double CountsTensor::PatternTotal(int pattern) const {
  double total = 0.0;
  const int s = side();
  for (int a = 0; a < s; ++a) {
    for (int b = 0; b < s; ++b) {
      for (int c = 0; c < s; ++c) {
        CountsCell cell{a, b, c};
        if (cell.Pattern() == pattern) total += at(cell);
      }
    }
  }
  return total;
}

double CountsTensor::PairAttemptTotal(int wa, int wb) const {
  CROWD_CHECK(wa >= 1 && wa <= 3 && wb >= 1 && wb <= 3 && wa != wb);
  int pair_mask = (1 << (wa - 1)) | (1 << (wb - 1));
  double total = 0.0;
  for (int pattern = 0; pattern < 8; ++pattern) {
    if ((pattern & pair_mask) == pair_mask) total += PatternTotal(pattern);
  }
  return total;
}

double CountsTensor::Covariance(const CountsCell& x,
                                const CountsCell& y) const {
  // Case 1 of Lemma 9: different attempt patterns are counted over
  // disjoint task groups, hence independent.
  if (x.Pattern() != y.Pattern()) return 0.0;
  double n = PatternTotal(x.Pattern());
  if (n <= 0.0) return 0.0;
  double cx = at(x);
  if (x == y) {
    // Case 2: multinomial variance, Count (n - Count) / n.
    return cx * (n - cx) / n;
  }
  // Case 3: multinomial cross term, -Count_x Count_y / n.
  return -cx * at(y) / n;
}

std::vector<CountsCell> CountsTensor::CellsWithMinWorkers(
    int min_workers) const {
  std::vector<CountsCell> cells;
  const int s = side();
  for (int a = 0; a < s; ++a) {
    for (int b = 0; b < s; ++b) {
      for (int c = 0; c < s; ++c) {
        CountsCell cell{a, b, c};
        const int responders = std::popcount(  // crowd-lint: allow(raw-popcount) 3-bit pattern, not a task bitset
            static_cast<unsigned>(cell.Pattern()));
        if (responders >= min_workers) {
          cells.push_back(cell);
        }
      }
    }
  }
  return cells;
}

}  // namespace crowd::core
