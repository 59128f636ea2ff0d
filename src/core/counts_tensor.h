// The (k+1)^3 response-frequency tensor of Algorithm A3:
// Counts[a][b][c] is the number of tasks where worker 1 responded a,
// worker 2 responded b and worker 3 responded c, with index 0 meaning
// "did not attempt" and indices 1..k meaning responses r_1..r_k
// (i.e. tensor index = dataset response + 1).
//
// Also implements Lemma 9: entries are multinomial within each
// "attempt pattern" (the set of workers that responded) and
// independent across patterns, which gives their covariances.

#ifndef CROWD_CORE_COUNTS_TENSOR_H_
#define CROWD_CORE_COUNTS_TENSOR_H_

#include <array>
#include <vector>

#include "data/response_matrix.h"
#include "linalg/matrix.h"
#include "util/logging.h"
#include "util/result.h"

namespace crowd::core {

/// \brief Index triple into the counts tensor; each component is in
/// [0, k] with 0 = "not attempted".
struct CountsCell {
  int a = 0;
  int b = 0;
  int c = 0;

  /// Bitmask of the workers that responded: bit 0 for worker 1, etc.
  int Pattern() const {
    return (a != 0 ? 1 : 0) | (b != 0 ? 2 : 0) | (c != 0 ? 4 : 0);
  }
  bool operator==(const CountsCell&) const = default;
};

/// \brief The dense counts tensor for one worker triple.
class CountsTensor {
 public:
  explicit CountsTensor(int arity);

  /// Builds the tensor from three workers' responses.
  static Result<CountsTensor> FromResponses(
      const data::ResponseMatrix& responses, data::WorkerId w1,
      data::WorkerId w2, data::WorkerId w3);

  int arity() const { return arity_; }
  /// Side length of the tensor, arity + 1.
  int side() const { return arity_ + 1; }

  double at(const CountsCell& cell) const { return cells_[Flat(cell)]; }
  double& at(const CountsCell& cell) { return cells_[Flat(cell)]; }
  double at(int a, int b, int c) const { return at(CountsCell{a, b, c}); }
  double& at(int a, int b, int c) { return at(CountsCell{a, b, c}); }

  /// Total count over all cells with each attempt pattern — the number
  /// of tasks attempted by exactly that worker set (Lemma 9's group
  /// size n) — from one pass over the cells. Each total adds its cells
  /// in (a, b, c) order.
  std::array<double, 8> PatternTotals() const;

  /// PatternTotals()[pattern].
  double PatternTotal(int pattern) const;

  /// Number of tasks attempted by all three workers (pattern 0b111).
  double TripleTotal() const { return PatternTotal(7); }

  /// Number of tasks attempted by workers `wa` and `wb` (1-based worker
  /// positions), regardless of the third: n_{a,b,*} + n_{a,b,only}.
  double PairAttemptTotal(int wa, int wb) const;

  /// Lemma 9: covariance of two tensor entries. Zero across different
  /// attempt patterns; multinomial within a pattern.
  double Covariance(const CountsCell& x, const CountsCell& y) const;

  /// The Lemma 9 covariance matrix of `cells`: entry (x, y) is
  /// Covariance(cells[x], cells[y]), with the pattern totals computed
  /// once rather than per entry.
  linalg::Matrix CovarianceMatrix(const std::vector<CountsCell>& cells) const;

  /// All cells whose pattern has at least `min_workers` responding
  /// workers, in deterministic order. These are the cells that feed
  /// the spectral estimate (a cell needs >= 2 responses to enter any
  /// response-frequency matrix).
  std::vector<CountsCell> CellsWithMinWorkers(int min_workers) const;

 private:
  size_t Flat(const CountsCell& cell) const {
    CROWD_DCHECK(cell.a >= 0 && cell.a <= arity_);
    CROWD_DCHECK(cell.b >= 0 && cell.b <= arity_);
    CROWD_DCHECK(cell.c >= 0 && cell.c <= arity_);
    size_t s = static_cast<size_t>(side());
    return (static_cast<size_t>(cell.a) * s + static_cast<size_t>(cell.b)) *
               s +
           static_cast<size_t>(cell.c);
  }

  int arity_;
  std::vector<double> cells_;
};

}  // namespace crowd::core

#endif  // CROWD_CORE_COUNTS_TENSOR_H_
