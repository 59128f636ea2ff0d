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

std::array<double, 8> CountsTensor::PatternTotals() const {
  std::array<double, 8> totals{};
  const int s = side();
  const double* cell = cells_.data();
  for (int a = 0; a < s; ++a) {
    for (int b = 0; b < s; ++b) {
      for (int c = 0; c < s; ++c) {
        totals[static_cast<size_t>(CountsCell{a, b, c}.Pattern())] += *cell++;
      }
    }
  }
  return totals;
}

double CountsTensor::PatternTotal(int pattern) const {
  CROWD_CHECK(pattern >= 0 && pattern < 8);
  return PatternTotals()[static_cast<size_t>(pattern)];
}

double CountsTensor::PairAttemptTotal(int wa, int wb) const {
  CROWD_CHECK(wa >= 1 && wa <= 3 && wb >= 1 && wb <= 3 && wa != wb);
  int pair_mask = (1 << (wa - 1)) | (1 << (wb - 1));
  const std::array<double, 8> totals = PatternTotals();
  double total = 0.0;
  for (int pattern = 0; pattern < 8; ++pattern) {
    if ((pattern & pair_mask) == pair_mask) {
      total += totals[static_cast<size_t>(pattern)];
    }
  }
  return total;
}

namespace {

// Lemma 9 for two cells of one attempt pattern with group size n.
double PatternCovariance(double cx, double cy, bool same_cell, double n) {
  if (n <= 0.0) return 0.0;
  if (same_cell) {
    // Case 2: multinomial variance, Count (n - Count) / n.
    return cx * (n - cx) / n;
  }
  // Case 3: multinomial cross term, -Count_x Count_y / n.
  return -cx * cy / n;
}

}  // namespace

double CountsTensor::Covariance(const CountsCell& x,
                                const CountsCell& y) const {
  // Case 1 of Lemma 9: different attempt patterns are counted over
  // disjoint task groups, hence independent.
  if (x.Pattern() != y.Pattern()) return 0.0;
  return PatternCovariance(at(x), at(y), x == y, PatternTotal(x.Pattern()));
}

linalg::Matrix CountsTensor::CovarianceMatrix(
    const std::vector<CountsCell>& cells) const {
  const std::array<double, 8> totals = PatternTotals();
  const size_t num_cells = cells.size();
  linalg::Matrix cov(num_cells, num_cells);
  for (size_t x = 0; x < num_cells; ++x) {
    const int pattern = cells[x].Pattern();
    for (size_t y = x; y < num_cells; ++y) {
      if (cells[y].Pattern() != pattern) continue;  // Case 1: zero.
      cov(x, y) = cov(y, x) = PatternCovariance(
          at(cells[x]), at(cells[y]), cells[x] == cells[y],
          totals[static_cast<size_t>(pattern)]);
    }
  }
  return cov;
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
