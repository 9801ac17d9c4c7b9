// Bounded-variable revised primal simplex with warm starting: the engine
// behind lp::solve (lp/solver.hpp).
//
// It keeps the constraint matrix sparse (the scheduling LPs have ~3
// nonzeros per column), handles the 0 <= x <= 1 bounds of the paper's
// models natively via the upper-bounded simplex technique (bound flips
// instead of explicit rows), and maintains an explicit dense basis inverse
// that is eta-updated per pivot and periodically refactorized for
// numerical hygiene.
//
// A pivot pays for the nonzeros it touches, not for every column and whole
// rows of the inverse. Each row of B⁻¹ carries a bitset of the columns that
// may be nonzero: y = c_B·B⁻¹ and the eta update walk only those. The pivot
// row α_r = e_rᵀB⁻¹A, which devex and the dual ratio test read, is built
// row by row from the rows where e_rᵀB⁻¹ is nonzero. Every sum still adds
// its nonzero terms in the order of the dense loops and skips only exact
// zeros, so every pivot, value and dual is bit-identical to the dense
// computation (DESIGN.md §8).
//
// Pricing is devex (reference weights, partial pricing over column
// buckets).
//
// Warm starts: a `start` basis is refactorized, dual feasibility is
// restored with bound flips on boxed columns, the remaining primal
// infeasibility is repaired with a bounded-variable dual simplex phase, and
// the primal phase polishes — no Phase-1-from-artificials. Any basis the
// repair path cannot use (singular after import, a dual ray, a stalled
// repair) falls back to the cold two-phase solve. See DESIGN.md §8.
//
// Callers prove each optimal answer with lp::certify; epoch re-solves go
// through core::EpochLpContext, which keeps warm-start basis reuse,
// iteration budgets and the certificate in one place.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "lp/solver.hpp"
#include "lp/solver_faults.hpp"

namespace lips::lp {

namespace {

constexpr double kInfD = std::numeric_limits<double>::infinity();

enum class Status : unsigned char { Basic, AtLower, AtUpper, FreeAtZero };

Status from_basis(BasisStatus s) {
  switch (s) {
    case BasisStatus::Basic:
      return Status::Basic;
    case BasisStatus::AtLower:
      return Status::AtLower;
    case BasisStatus::AtUpper:
      return Status::AtUpper;
    case BasisStatus::Free:
      return Status::FreeAtZero;
  }
  return Status::AtLower;
}

BasisStatus to_basis(Status s) {
  switch (s) {
    case Status::Basic:
      return BasisStatus::Basic;
    case Status::AtLower:
      return BasisStatus::AtLower;
    case Status::AtUpper:
      return BasisStatus::AtUpper;
    case Status::FreeAtZero:
      return BasisStatus::Free;
  }
  return BasisStatus::AtLower;
}

// Calls f(i) for each set bit i of words[0, n), in increasing order.
template <class F>
void for_each_bit(const std::uint64_t* words, std::size_t n, F&& f) {
  for (std::size_t w = 0; w < n; ++w) {
    for (std::uint64_t b = words[w]; b != 0; b &= b - 1)
      f(w * 64 + static_cast<std::size_t>(std::countr_zero(b)));
  }
}

// Dense m x m matrix stored row-major, with a bitset per row that marks the
// columns that may hold a nonzero. A bit may stand over an exact zero (a
// cancellation or an underflow), never be clear over a nonzero.
class DenseMatrix {
 public:
  explicit DenseMatrix(std::size_t m)
      : m_(m), words_((m + 63) / 64), a_(m * m, 0.0), nz_(m * words_, 0) {}

  void set_zero() { std::fill(a_.begin(), a_.end(), 0.0); }
  void set_identity() {
    set_zero();
    for (std::size_t i = 0; i < m_; ++i) at(i, i) = 1.0;
  }

  double& at(std::size_t r, std::size_t c) { return a_[r * m_ + c]; }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return a_[r * m_ + c];
  }
  [[nodiscard]] std::size_t dim() const { return m_; }

  // Row pointer for tight inner loops.
  double* row(std::size_t r) { return a_.data() + r * m_; }
  [[nodiscard]] const double* row(std::size_t r) const {
    return a_.data() + r * m_;
  }

  // Rebuild every row's bitset from the values it holds.
  void mark_nonzeros() {
    for (std::size_t r = 0; r < m_; ++r) {
      const double* v = row(r);
      std::uint64_t* bits = nz_.data() + r * words_;
      for (std::size_t w = 0; w < words_; ++w) {
        std::uint64_t word = 0;
        const std::size_t end = std::min(m_, 64 * w + 64);
        for (std::size_t c = 64 * w; c < end; ++c)
          word |= std::uint64_t{v[c] != 0.0} << (c % 64);
        bits[w] = word;
      }
    }
  }

  // Row r's marks become exactly `cols`.
  void mark_exactly(std::size_t r, const std::vector<std::size_t>& cols) {
    std::uint64_t* bits = nz_.data() + r * words_;
    std::fill_n(bits, words_, std::uint64_t{0});
    for (const std::size_t c : cols)
      bits[c / 64] |= std::uint64_t{1} << (c % 64);
  }

  // Row `to` may now be nonzero wherever row `from` may.
  void merge_marks(std::size_t to, std::size_t from) {
    std::uint64_t* dst = nz_.data() + to * words_;
    const std::uint64_t* src = nz_.data() + from * words_;
    for (std::size_t w = 0; w < words_; ++w) dst[w] |= src[w];
  }

  // Calls f(c) for each marked column c of row r, in increasing order.
  template <class F>
  void for_each_marked(std::size_t r, F&& f) const {
    for_each_bit(nz_.data() + r * words_, words_, f);
  }

 private:
  std::size_t m_;
  std::size_t words_;
  std::vector<double> a_;
  std::vector<std::uint64_t> nz_;
};

// One solve: owns the computational form (structural + slack columns;
// artificials appended only by the cold path) and the simplex state shared
// by the primal phases, the dual repair phase, and basis import/export.
class Engine {
 public:
  Engine(const LpModel& model, const SolverOptions& options)
      : model_(model),
        opt_(options),
        n_user_(model.num_variables()),
        m_(model.num_constraints()),
        chaos_(options.fault_injector),
        binv_(m_) {}

  [[nodiscard]] LpSolution run(const Basis* start);

 private:
  // ---- setup ---------------------------------------------------------------
  void build_columns();
  void init_cold_point();
  void append_artificials();
  [[nodiscard]] bool import_basis(const Basis& start);

  // ---- linear algebra ------------------------------------------------------
  [[nodiscard]] bool refactorize();
  [[nodiscard]] bool invert_basis();
  void recompute_basics();
  void compute_y(const std::vector<double>& cost);
  [[nodiscard]] double sparse_dot_y(std::size_t j) const;
  void ftran(std::size_t enter);        // w_ = Binv * A_enter
  void eta_update(std::size_t leave_row);
  void compute_pivot_row(std::size_t r);  // alpha_ = e_r' Binv A

  // ---- phases --------------------------------------------------------------
  [[nodiscard]] SolveStatus run_primal(const std::vector<double>& cost);
  [[nodiscard]] SolveStatus run_dual();
  void update_devex(std::size_t enter, std::size_t leave_row);

  // ---- warm-start repair ---------------------------------------------------
  [[nodiscard]] std::size_t flip_to_dual_feasible();
  [[nodiscard]] std::size_t count_primal_infeasible() const;
  [[nodiscard]] std::size_t count_dual_infeasible();

  // ---- wrap-up -------------------------------------------------------------
  [[nodiscard]] SolveStatus cold_solve();
  void finalize(LpSolution& out, SolveStatus s) const;

  [[nodiscard]] std::size_t num_cols() const { return lower_.size(); }
  // Column j's entries: (row index, coefficient), sorted by row.
  [[nodiscard]] std::span<const Entry> column(std::size_t j) const {
    return {col_entry_.data() + col_start_[j],
            col_entry_.data() + col_start_[j + 1]};
  }
  [[nodiscard]] double rest_value(std::size_t j, Status st) const {
    switch (st) {
      case Status::AtLower:
        return lower_[j];
      case Status::AtUpper:
        return upper_[j];
      default:
        return 0.0;
    }
  }

  void sanitize_computational_form();

  const LpModel& model_;
  const SolverOptions& opt_;
  const std::size_t n_user_;
  const std::size_t m_;
  SolverFaultInjector* const chaos_;  // may be null

  // The computational form's columns, stored contiguously: column j's
  // entries are col_entry_[col_start_[j], col_start_[j + 1]).
  std::vector<std::size_t> col_start_;
  std::vector<Entry> col_entry_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> b_;
  std::vector<double> cost2_;  // phase-2 cost
  std::size_t art_begin_ = 0;  // == num_cols() when no artificials exist

  std::vector<Status> status_;
  std::vector<double> value_;
  std::vector<std::size_t> basis_;
  DenseMatrix binv_;
  std::vector<std::size_t> pivot_row_;  // refactorize's row swaps
  std::vector<char> banned_;  // frozen artificials (phase 2)
  std::vector<double> y_;
  std::vector<double> w_;
  std::vector<double> devex_;
  std::size_t bucket_cursor_ = 0;

  // The pivot row: alpha_[j] is nonzero only for j in touched_.
  std::vector<double> alpha_;
  std::vector<char> is_touched_;
  std::vector<std::size_t> touched_;
  std::vector<std::size_t> eta_cols_;  // the leaving row's nonzero columns

  std::size_t iterations_ = 0;
  std::size_t repair_iterations_ = 0;
  std::size_t max_iter_ = 0;
  bool warm_used_ = false;
};

void Engine::build_columns() {
  // Structural columns, then one slack per row. Counting each column's
  // entries first lets one pass over the rows, in row order, place them.
  const std::size_t n = n_user_ + m_;
  lower_.resize(n);
  upper_.resize(n);
  cost2_.assign(n, 0.0);
  col_start_.assign(n + 1, 0);
  for (std::size_t j = 0; j < n_user_; ++j) {
    const Variable& v = model_.variable(j);
    lower_[j] = v.lower;
    upper_[j] = v.upper;
    cost2_[j] = v.objective;
  }
  b_.assign(m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const Constraint& row = model_.constraint(i);
    b_[i] = row.rhs;
    for (const Entry& e : row.entries) ++col_start_[e.var + 1];
    col_start_[n_user_ + i + 1] = 1;
    const std::size_t s = n_user_ + i;  // slack: a'x + s = b
    switch (row.sense) {
      case Sense::LessEqual:
        lower_[s] = 0.0;
        upper_[s] = kInf;
        break;
      case Sense::GreaterEqual:
        lower_[s] = -kInf;
        upper_[s] = 0.0;
        break;
      case Sense::Equal:
        lower_[s] = 0.0;
        upper_[s] = 0.0;
        break;
    }
  }
  for (std::size_t j = 0; j < n; ++j) col_start_[j + 1] += col_start_[j];
  col_entry_.resize(col_start_[n]);
  std::vector<std::size_t> next(col_start_.begin(), col_start_.end() - 1);
  for (std::size_t i = 0; i < m_; ++i) {
    for (const Entry& e : model_.constraint(i).entries)
      col_entry_[next[e.var]++] = {i, e.coeff};
    col_entry_[next[n_user_ + i]++] = {i, 1.0};
  }
  art_begin_ = n;
}

void Engine::sanitize_computational_form() {
  // Re-derive the computational objective and RHS from the LpModel, whose
  // mutators reject non-finite input — so this pass heals anything that
  // corrupted the arrays *after* ingest (fault injection, and in a future
  // daemon any stale in-place numeric update), including finite-but-absurd
  // entries that pass a bare finiteness check yet poison pricing.
  for (std::size_t j = 0; j < art_begin_; ++j)
    cost2_[j] = j < n_user_ ? model_.variable(j).objective : 0.0;
  for (std::size_t i = 0; i < m_; ++i) b_[i] = model_.constraint(i).rhs;
}

void Engine::init_cold_point() {
  status_.assign(num_cols(), Status::AtLower);
  value_.assign(num_cols(), 0.0);
  for (std::size_t j = 0; j < num_cols(); ++j) {
    if (lower_[j] > -kInf) {
      status_[j] = Status::AtLower;
    } else if (upper_[j] < kInf) {
      status_[j] = Status::AtUpper;
    } else {
      status_[j] = Status::FreeAtZero;
    }
    value_[j] = rest_value(j, status_[j]);
  }
}

void Engine::append_artificials() {
  // Row residuals with everything at bounds → artificial variables.
  std::vector<double> residual = b_;
  for (std::size_t j = 0; j < num_cols(); ++j) {
    if (value_[j] == 0.0) continue;
    for (const Entry& e : column(j)) residual[e.var] -= e.coeff * value_[j];
  }
  basis_.resize(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    col_entry_.push_back({i, residual[i] >= 0.0 ? 1.0 : -1.0});
    col_start_.push_back(col_entry_.size());
    lower_.push_back(0.0);
    upper_.push_back(kInf);
    basis_[i] = num_cols() - 1;
    status_.push_back(Status::Basic);
    value_.push_back(std::fabs(residual[i]));
  }
  cost2_.resize(num_cols(), 0.0);  // phase-1 cost is handled separately
  // Basis inverse (identity-sign-adjusted: artificial columns are ±e_i, so
  // Binv starts as the diagonal of their signs).
  binv_.set_identity();
  for (std::size_t i = 0; i < m_; ++i) {
    if (column(basis_[i]).front().coeff < 0.0) binv_.at(i, i) = -1.0;
  }
  binv_.mark_nonzeros();
}

bool Engine::import_basis(const Basis& start) {
  if (start.variables.size() != n_user_ || start.slacks.size() != m_)
    return false;
  status_.assign(num_cols(), Status::AtLower);
  std::vector<std::size_t> basics;
  basics.reserve(m_);
  for (std::size_t j = 0; j < num_cols(); ++j) {
    Status st = from_basis(j < n_user_ ? start.variables[j]
                                       : start.slacks[j - n_user_]);
    if (st == Status::Basic) {
      basics.push_back(j);
      status_[j] = st;
      continue;
    }
    // Sanitize nonbasic statuses against this model's bounds (the exporting
    // model may have had a different bound structure).
    const double lo = lower_[j];
    const double up = upper_[j];
    if (st == Status::AtLower && lo <= -kInf)
      st = up < kInf ? Status::AtUpper : Status::FreeAtZero;
    if (st == Status::AtUpper && up >= kInf)
      st = lo > -kInf ? Status::AtLower : Status::FreeAtZero;
    if (st == Status::FreeAtZero && (lo > -kInf || up < kInf))
      st = lo > -kInf ? Status::AtLower : Status::AtUpper;
    status_[j] = st;
  }
  // A short basis (exporter finished with an artificial basic on a redundant
  // row) is completed with slack columns; a long one is trimmed from the
  // highest column index down (slacks first, structurals last).
  for (std::size_t i = 0; i < m_ && basics.size() < m_; ++i) {
    const std::size_t j = n_user_ + i;
    if (status_[j] != Status::Basic) {
      status_[j] = Status::AtLower;  // re-sanitized below after demotion
      basics.push_back(j);
      status_[j] = Status::Basic;
    }
  }
  while (basics.size() > m_) {
    const std::size_t j = basics.back();
    basics.pop_back();
    status_[j] = lower_[j] > -kInf   ? Status::AtLower
                 : upper_[j] < kInf ? Status::AtUpper
                                    : Status::FreeAtZero;
  }
  if (basics.size() != m_) return false;
  basis_ = std::move(basics);
  if (!refactorize()) return false;
  value_.assign(num_cols(), 0.0);
  for (std::size_t j = 0; j < num_cols(); ++j) {
    if (status_[j] != Status::Basic) value_[j] = rest_value(j, status_[j]);
  }
  recompute_basics();
  return true;
}

bool Engine::refactorize() {
  if (chaos_ != nullptr && chaos_->fail_refactorize()) return false;
  const bool ok = invert_basis();
  // Also after a failed inversion: the final refresh reads binv_ either way.
  binv_.mark_nonzeros();
  return ok;
}

bool Engine::invert_basis() {
  // Gauss–Jordan in place: B is built in binv_ and inverted there. Once a
  // column is pivoted, its slot holds a column of the inverse (seeded with
  // the identity's 1 before the pivot row is scaled). Partial pivoting's
  // row swaps leave those columns permuted; they are swapped back, last
  // swap first, at the end.
  binv_.set_zero();
  for (std::size_t i = 0; i < m_; ++i) {
    for (const Entry& e : column(basis_[i])) binv_.at(e.var, i) = e.coeff;
  }
  pivot_row_.resize(m_);
  for (std::size_t col = 0; col < m_; ++col) {
    // Partial pivoting.
    std::size_t piv = col;
    double best = std::fabs(binv_.at(col, col));
    for (std::size_t r = col + 1; r < m_; ++r) {
      const double v = std::fabs(binv_.at(r, col));
      if (v > best) {
        best = v;
        piv = r;
      }
    }
    if (best < 1e-12) return false;  // singular basis
    pivot_row_[col] = piv;
    if (piv != col)
      std::swap_ranges(binv_.row(piv), binv_.row(piv) + m_, binv_.row(col));
    double* prow = binv_.row(col);
    const double inv = 1.0 / prow[col];
    prow[col] = 1.0;
    for (std::size_t c = 0; c < m_; ++c) prow[c] *= inv;
    for (std::size_t r = 0; r < m_; ++r) {
      if (r == col) continue;
      double* rrow = binv_.row(r);
      const double f = rrow[col];
      if (f == 0.0) continue;
      rrow[col] = 0.0;
      for (std::size_t c = 0; c < m_; ++c) rrow[c] -= f * prow[c];
    }
  }
  for (std::size_t col = m_; col-- > 0;) {
    const std::size_t piv = pivot_row_[col];
    if (piv == col) continue;
    for (std::size_t r = 0; r < m_; ++r)
      std::swap(binv_.at(r, piv), binv_.at(r, col));
  }
  return true;
}

void Engine::recompute_basics() {
  // xB = Binv (b - N xN). Dense on purpose: a NaN or Inf in the rhs must
  // reach every basic value, and NaN × 0 is NaN.
  std::vector<double> rhs = b_;
  for (std::size_t j = 0; j < num_cols(); ++j) {
    if (status_[j] == Status::Basic || value_[j] == 0.0) continue;
    for (const Entry& e : column(j)) rhs[e.var] -= e.coeff * value_[j];
  }
  for (std::size_t i = 0; i < m_; ++i) {
    double v = 0.0;
    const double* row = binv_.row(i);
    for (std::size_t k = 0; k < m_; ++k) v += row[k] * rhs[k];
    value_[basis_[i]] = v;
  }
}

void Engine::compute_y(const std::vector<double>& cost) {
  // y = c_B Binv, adding row k's terms to each y_i in increasing k. Terms
  // off a row's marks are cb × 0 and change no sum from +0.0, unless cb is
  // not finite: then cb × 0 is NaN and must reach every y_i.
  y_.assign(m_, 0.0);
  for (std::size_t k = 0; k < m_; ++k) {
    const double cb = cost[basis_[k]];
    if (cb == 0.0) continue;
    const double* row = binv_.row(k);
    if (!std::isfinite(cb)) {
      for (std::size_t i = 0; i < m_; ++i) y_[i] += cb * row[i];
      continue;
    }
    binv_.for_each_marked(k, [&](std::size_t i) { y_[i] += cb * row[i]; });
  }
}

double Engine::sparse_dot_y(std::size_t j) const {
  double d = 0.0;
  for (const Entry& e : column(j)) d += y_[e.var] * e.coeff;
  return d;
}

void Engine::ftran(std::size_t enter) {
  w_.assign(m_, 0.0);
  for (const Entry& e : column(enter)) {
    const double coeff = e.coeff;
    for (std::size_t i = 0; i < m_; ++i) {
      w_[i] += binv_.at(i, e.var) * coeff;
    }
  }
}

void Engine::eta_update(std::size_t leave_row) {
  // Only the leaving row's nonzero columns change: elsewhere the dense
  // update would subtract f × 0, which changes no entry but at most the
  // sign of a zero, and no reader sees that (each tests == 0.0 or sums from
  // +0.0). The leaving row's marks are rewritten to its nonzeros, so a
  // cancellation in a row clears its mark the next time that row leaves.
  const double piv = w_[leave_row];
  LIPS_ASSERT(std::fabs(piv) > 1e-12, "pivot element vanished");
  const double inv = 1.0 / piv;
  double* prow = binv_.row(leave_row);
  eta_cols_.clear();
  binv_.for_each_marked(leave_row, [&](std::size_t c) {
    if (prow[c] == 0.0) return;
    prow[c] *= inv;
    eta_cols_.push_back(c);
  });
  binv_.mark_exactly(leave_row, eta_cols_);
  for (std::size_t r = 0; r < m_; ++r) {
    if (r == leave_row) continue;
    const double f = w_[r];
    if (f == 0.0) continue;
    double* rrow = binv_.row(r);
    for (const std::size_t c : eta_cols_) rrow[c] -= f * prow[c];
    binv_.merge_marks(r, leave_row);
  }
}

void Engine::compute_pivot_row(std::size_t r) {
  // alpha_j = rho . a_j with rho = e_r' Binv, scattered row by row over the
  // rows where rho_i != 0, in increasing i: each alpha_j adds its terms in
  // the order of the column-wise dot product and skips only exact zeros.
  // Slacks and artificials add their unit entries the same way.
  if (alpha_.size() != num_cols()) {
    alpha_.assign(num_cols(), 0.0);
    is_touched_.assign(num_cols(), 0);
    touched_.clear();
  }
  for (const std::size_t j : touched_) {
    alpha_[j] = 0.0;
    is_touched_[j] = 0;
  }
  touched_.clear();
  auto add = [&](std::size_t j, double term) {
    if (is_touched_[j] == 0) {
      is_touched_[j] = 1;
      touched_.push_back(j);
    }
    alpha_[j] += term;
  };
  const bool artificials = num_cols() > art_begin_;
  const double* rho = binv_.row(r);
  binv_.for_each_marked(r, [&](std::size_t i) {
    const double ri = rho[i];
    if (ri == 0.0) return;
    for (const Entry& e : model_.constraint(i).entries)
      add(e.var, ri * e.coeff);
    add(n_user_ + i, ri * 1.0);
    if (artificials)
      add(art_begin_ + i, ri * column(art_begin_ + i).front().coeff);
  });
}

void Engine::update_devex(std::size_t enter, std::size_t leave_row) {
  // Devex reference weights (Forrest–Goldfarb): the entering column's weight
  // propagates through the pivot row so steep columns stay expensive to
  // re-enter; the leaving column inherits the pivot-scaled weight. Each
  // update is a max of its own, so touched_'s order does not matter.
  const double alpha_q = w_[leave_row];
  if (std::fabs(alpha_q) < 1e-12) return;
  const double gq = std::max(devex_[enter], 1.0);
  compute_pivot_row(leave_row);
  double maxw = 0.0;
  for (const std::size_t j : touched_) {
    if (j == enter || status_[j] == Status::Basic || banned_[j]) continue;
    const double a = alpha_[j];
    if (a == 0.0) continue;
    const double r = a / alpha_q;
    const double cand = r * r * gq;
    if (cand > devex_[j]) devex_[j] = cand;
    if (devex_[j] > maxw) maxw = devex_[j];
  }
  devex_[basis_[leave_row]] = std::max(gq / (alpha_q * alpha_q), 1.0);
  if (maxw > 1e10) devex_.assign(num_cols(), 1.0);  // framework reset
}

SolveStatus Engine::run_primal(const std::vector<double>& cost) {
  const std::size_t n = num_cols();
  std::size_t stall = 0;
  std::size_t since_refactor = 0;
  double last_obj = kInfD;
  devex_.assign(n, 1.0);
  bucket_cursor_ = 0;
  // A bound flip changes neither the basis nor Binv, so y_ stays c_B Binv
  // until a pivot or a refactorization.
  bool y_current = false;
  // Partial pricing: scan candidate buckets round-robin; a pricing pass may
  // stop early once it holds a candidate, but optimality is only declared
  // after a full scan finds none.
  constexpr std::size_t kBucket = 128;
  const std::size_t buckets = (n + kBucket - 1) / kBucket;
  const std::size_t min_buckets = std::max<std::size_t>(1, (buckets + 3) / 4);

  while (true) {
    if (iterations_ >= max_iter_) return SolveStatus::IterationLimit;

    if (!y_current) compute_y(cost);

    const bool bland = stall > 2 * m_ + 32;
    std::size_t enter = n;
    int enter_dir = 0;  // +1: increase from bound, -1: decrease
    double best_score = 0.0;
    auto consider = [&](std::size_t j) {
      if (status_[j] == Status::Basic || banned_[j]) return;
      if (lower_[j] == upper_[j]) return;  // fixed column can never improve
      const double d = cost[j] - sparse_dot_y(j);
      int dir = 0;
      if (status_[j] == Status::AtLower || status_[j] == Status::FreeAtZero) {
        if (d < -kTolerance) dir = +1;
      }
      if (dir == 0 &&
          (status_[j] == Status::AtUpper || status_[j] == Status::FreeAtZero)) {
        if (d > kTolerance) dir = -1;
      }
      if (dir == 0) return;
      const double score = (d * d) / devex_[j];
      if (score > best_score) {
        best_score = score;
        enter = j;
        enter_dir = dir;
      }
    };
    if (bland) {
      // Bland anti-cycling: lowest-index eligible column, full scan.
      for (std::size_t j = 0; j < n && enter == n; ++j) consider(j);
    } else if (buckets <= 1) {
      for (std::size_t j = 0; j < n; ++j) consider(j);
    } else {
      std::size_t scanned = 0;
      while (scanned < buckets) {
        const std::size_t bkt = (bucket_cursor_ + scanned) % buckets;
        const std::size_t begin = bkt * kBucket;
        const std::size_t end = std::min(n, begin + kBucket);
        for (std::size_t j = begin; j < end; ++j) consider(j);
        ++scanned;
        if (scanned >= min_buckets && enter != n) break;
      }
      bucket_cursor_ = (bucket_cursor_ + scanned) % buckets;
    }
    if (enter == n) return SolveStatus::Optimal;

    ftran(enter);

    // Bounded ratio test. Entering moves by sigma * t, t >= 0.
    const double sigma = enter_dir;
    double t_max = kInfD;
    std::size_t leave_row = m_;  // m = bound flip / unbounded sentinel
    bool leave_at_upper = false;

    // Entering variable's own range limit (bound flip).
    if (lower_[enter] > -kInf && upper_[enter] < kInf)
      t_max = upper_[enter] - lower_[enter];

    for (std::size_t i = 0; i < m_; ++i) {
      const double wi = w_[i];
      const double delta = sigma * wi;  // basic i changes by -delta * t
      const std::size_t bj = basis_[i];
      double limit = kInfD;
      bool hits_upper = false;
      if (delta > kTolerance) {
        if (lower_[bj] > -kInf) limit = (value_[bj] - lower_[bj]) / delta;
      } else if (delta < -kTolerance) {
        if (upper_[bj] < kInf) {
          limit = (value_[bj] - upper_[bj]) / delta;
          hits_upper = true;
        }
      }
      if (limit < -1e-12) limit = 0.0;  // numerical guard
      if (limit < t_max - 1e-12 ||
          (limit < t_max + 1e-12 && leave_row != m_ &&
           bj < basis_[leave_row])) {
        t_max = std::max(limit, 0.0);
        leave_row = i;
        leave_at_upper = hits_upper;
      }
    }

    if (!std::isfinite(t_max)) return SolveStatus::Unbounded;

    ++iterations_;
    ++since_refactor;

    if (leave_row == m_) {
      // Bound flip: entering travels its whole range, basis unchanged.
      for (std::size_t i = 0; i < m_; ++i)
        value_[basis_[i]] -= sigma * w_[i] * t_max;
      value_[enter] += sigma * t_max;
      status_[enter] = (enter_dir > 0) ? Status::AtUpper : Status::AtLower;
      // Snap exactly to the bound to avoid drift.
      value_[enter] = rest_value(enter, status_[enter]);
      y_current = true;
    } else {
      if (!bland) update_devex(enter, leave_row);
      // Pivot: update values, basis, inverse.
      for (std::size_t i = 0; i < m_; ++i)
        value_[basis_[i]] -= sigma * w_[i] * t_max;
      const std::size_t leaving = basis_[leave_row];
      status_[leaving] = leave_at_upper ? Status::AtUpper : Status::AtLower;
      value_[leaving] = rest_value(leaving, status_[leaving]);

      value_[enter] = rest_value(enter, status_[enter]) + sigma * t_max;
      status_[enter] = Status::Basic;
      basis_[leave_row] = enter;

      eta_update(leave_row);
      y_current = false;
    }

    if (since_refactor >= 1024) {
      since_refactor = 0;
      y_current = false;
      if (!refactorize()) return SolveStatus::IterationLimit;
      recompute_basics();
    }

    // Stall detection for Bland switch.
    double obj = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      if (value_[j] != 0.0) obj += cost[j] * value_[j];
    if (obj >= last_obj - 1e-13) {
      ++stall;
    } else {
      stall = 0;
    }
    last_obj = obj;
  }
}

SolveStatus Engine::run_dual() {
  // Bounded-variable dual simplex: starting from a dual-feasible basis,
  // drive out primal infeasibility one most-violated basic at a time while
  // the dual ratio test keeps every reduced cost sign-correct. Returns
  //   Optimal       — primal feasible (caller polishes with run_primal),
  //   Infeasible    — a row admits no entering column (dual ray; the LP is
  //                   primal infeasible) *or* the repair stalled/went
  //                   numerically bad — callers treat both as "abandon the
  //                   warm start and solve cold",
  //   IterationLimit— budget exhausted.
  constexpr double kPivotTol = 1e-9;
  std::size_t since_refactor = 0;
  std::size_t stall = 0;
  double last_worst = kInfD;
  std::vector<std::uint64_t> candidates((num_cols() + 63) / 64, 0);

  while (true) {
    if (iterations_ >= max_iter_) return SolveStatus::IterationLimit;

    // Leaving variable: the most-violated basic.
    std::size_t r = m_;
    double worst = kTolerance;
    bool above = false;
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t bj = basis_[i];
      const double v = value_[bj];
      if (lower_[bj] > -kInf && lower_[bj] - v > worst) {
        worst = lower_[bj] - v;
        r = i;
        above = false;
      }
      if (upper_[bj] < kInf && v - upper_[bj] > worst) {
        worst = v - upper_[bj];
        r = i;
        above = true;
      }
    }
    if (r == m_) return SolveStatus::Optimal;

    // Degenerate dual steps make no primal progress; a long run of them
    // means cycling risk — hand the model to the cold path instead.
    if (worst >= last_worst - 1e-13) {
      if (++stall > 2 * m_ + 32) return SolveStatus::Infeasible;
    } else {
      stall = 0;
    }
    last_worst = worst;

    compute_y(cost2_);
    compute_pivot_row(r);

    // Entering variable: minimum dual ratio |d_j| / |alpha_j| over columns
    // whose pivot sign lets the leaving variable move back to its bound.
    // Only touched columns can pass the sign test (alpha_j = 0 elsewhere).
    // The first ratio that beats the best by 1e-12 wins, so the passing
    // columns are marked in a bitset and visited in column order.
    for (const std::size_t j : touched_) {
      if (status_[j] == Status::Basic || banned_[j]) continue;
      if (lower_[j] == upper_[j]) continue;
      const double ap = above ? alpha_[j] : -alpha_[j];
      if ((status_[j] == Status::AtLower && ap > kPivotTol) ||
          (status_[j] == Status::AtUpper && ap < -kPivotTol) ||
          (status_[j] == Status::FreeAtZero && std::fabs(ap) > kPivotTol))
        candidates[j / 64] |= std::uint64_t{1} << (j % 64);
    }
    std::size_t enter = num_cols();
    double best_ratio = kInfD;
    for_each_bit(candidates.data(), candidates.size(), [&](std::size_t j) {
      const double ap = above ? alpha_[j] : -alpha_[j];
      double ratio = kInfD;
      if (status_[j] == Status::AtLower) {
        ratio = std::max(cost2_[j] - sparse_dot_y(j), 0.0) / ap;
      } else if (status_[j] == Status::AtUpper) {
        ratio = std::min(cost2_[j] - sparse_dot_y(j), 0.0) / ap;
      } else {
        ratio = std::fabs(cost2_[j] - sparse_dot_y(j)) / std::fabs(ap);
      }
      if (ratio < best_ratio - 1e-12) {
        best_ratio = ratio;
        enter = j;
      }
    });
    std::fill(candidates.begin(), candidates.end(), 0);
    if (enter == num_cols()) return SolveStatus::Infeasible;

    ftran(enter);
    const double alpha = w_[r];
    if (std::fabs(alpha) < kPivotTol) return SolveStatus::Infeasible;

    const std::size_t leaving = basis_[r];
    const double target = above ? upper_[leaving] : lower_[leaving];
    const double step = (value_[leaving] - target) / alpha;  // signed
    for (std::size_t i = 0; i < m_; ++i) value_[basis_[i]] -= w_[i] * step;
    value_[enter] = rest_value(enter, status_[enter]) + step;
    status_[leaving] = above ? Status::AtUpper : Status::AtLower;
    value_[leaving] = target;
    status_[enter] = Status::Basic;
    basis_[r] = enter;
    eta_update(r);

    ++iterations_;
    ++repair_iterations_;
    ++since_refactor;
    if (since_refactor >= 128) {
      since_refactor = 0;
      if (!refactorize()) return SolveStatus::Infeasible;
      recompute_basics();
    }
  }
}

std::size_t Engine::flip_to_dual_feasible() {
  // Boxed nonbasic columns sitting on the dual-infeasible bound are flipped
  // to the other bound — a free dual-feasibility repair (no pivots). The
  // scheduling LPs are almost entirely [0,1] columns, so flips absorb most
  // of an epoch delta's objective drift.
  compute_y(cost2_);
  std::size_t flips = 0;
  for (std::size_t j = 0; j < num_cols(); ++j) {
    if (status_[j] == Status::Basic) continue;
    if (!(lower_[j] > -kInf) || !(upper_[j] < kInf) || lower_[j] == upper_[j])
      continue;
    const double d = cost2_[j] - sparse_dot_y(j);
    if (status_[j] == Status::AtLower && d < -kTolerance) {
      status_[j] = Status::AtUpper;
      value_[j] = upper_[j];
      ++flips;
    } else if (status_[j] == Status::AtUpper && d > kTolerance) {
      status_[j] = Status::AtLower;
      value_[j] = lower_[j];
      ++flips;
    }
  }
  if (flips > 0) recompute_basics();
  return flips;
}

std::size_t Engine::count_primal_infeasible() const {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t bj = basis_[i];
    const double v = value_[bj];
    if ((lower_[bj] > -kInf && lower_[bj] - v > kTolerance) ||
        (upper_[bj] < kInf && v - upper_[bj] > kTolerance))
      ++bad;
  }
  return bad;
}

std::size_t Engine::count_dual_infeasible() {
  compute_y(cost2_);
  std::size_t bad = 0;
  for (std::size_t j = 0; j < num_cols(); ++j) {
    if (status_[j] == Status::Basic) continue;
    if (lower_[j] == upper_[j]) continue;
    const double d = cost2_[j] - sparse_dot_y(j);
    switch (status_[j]) {
      case Status::AtLower:
        if (d < -kTolerance) ++bad;
        break;
      case Status::AtUpper:
        if (d > kTolerance) ++bad;
        break;
      case Status::FreeAtZero:
        if (std::fabs(d) > kTolerance) ++bad;
        break;
      case Status::Basic:
        break;
    }
  }
  return bad;
}

SolveStatus Engine::cold_solve() {
  // Classic two-phase solve from the all-artificial basis. When entered as a
  // warm-start fallback, `iterations_` keeps accumulating (the wasted warm
  // pivots are honestly reported) and an automatic budget is re-granted at
  // cold scale; an explicit budget is never extended.
  init_cold_point();
  append_artificials();
  banned_.assign(num_cols(), 0);
  if (opt_.max_iterations > 0) {
    max_iter_ = opt_.max_iterations;
  } else {
    max_iter_ = iterations_ + automatic_iteration_budget(m_, num_cols());
  }
  if (chaos_ != nullptr) max_iter_ = chaos_->cap_budget(iterations_, max_iter_);

  std::vector<double> cost1(num_cols(), 0.0);
  for (std::size_t j = art_begin_; j < num_cols(); ++j) cost1[j] = 1.0;

  // ---- Phase 1: drive artificials to zero. --------------------------------
  {
    const SolveStatus s = run_primal(cost1);
    if (s == SolveStatus::IterationLimit) return s;
    LIPS_ASSERT(s != SolveStatus::Unbounded, "phase-1 bounded below by 0");
    double art_sum = 0.0;
    for (std::size_t j = art_begin_; j < num_cols(); ++j) art_sum += value_[j];
    if (art_sum > 1e-6) return SolveStatus::Infeasible;
    // Freeze artificials at zero for phase 2.
    for (std::size_t j = art_begin_; j < num_cols(); ++j) {
      lower_[j] = 0.0;
      upper_[j] = 0.0;
      banned_[j] = 1;
      if (status_[j] != Status::Basic) {
        status_[j] = Status::AtLower;
        value_[j] = 0.0;
      }
    }
  }

  // ---- Phase 2: original objective. ---------------------------------------
  return run_primal(cost2_);
}

void Engine::finalize(LpSolution& out, SolveStatus s) const {
  out.status = s;
  out.iterations = iterations_;
  out.repair_iterations = repair_iterations_;
  out.warm_start_used = warm_used_;
}

LpSolution Engine::run(const Basis* start) {
  LpSolution out;
  out.values.assign(n_user_, 0.0);

  // Roll this solve's fate exactly once, even on the bounds-only early path,
  // so the injector's RNG stream advances per solve, not per code path.
  if (chaos_ != nullptr) chaos_->begin_solve();

  // Bounds-only model: optimum is at a bound per variable.
  if (m_ == 0) {
    for (std::size_t j = 0; j < n_user_; ++j) {
      const Variable& v = model_.variable(j);
      double x;
      if (v.objective > 0) {
        x = v.lower;
      } else if (v.objective < 0) {
        x = v.upper;
      } else {
        x = std::clamp(0.0, v.lower, v.upper);
      }
      if (!std::isfinite(x)) {
        out.status = SolveStatus::Unbounded;
        return out;
      }
      out.values[j] = x;
    }
    out.status = SolveStatus::Optimal;
    out.objective = model_.objective_value(out.values);
    // With no rows there are no duals and every reduced cost is the raw
    // objective coefficient.
    out.reduced_costs.resize(n_user_);
    out.basis.variables.resize(n_user_);
    for (std::size_t j = 0; j < n_user_; ++j) {
      const Variable& v = model_.variable(j);
      out.reduced_costs[j] = v.objective;
      out.basis.variables[j] = out.values[j] == v.lower
                                   ? BasisStatus::AtLower
                                   : (out.values[j] == v.upper
                                          ? BasisStatus::AtUpper
                                          : BasisStatus::Free);
    }
    return out;
  }

  build_columns();
  if (chaos_ != nullptr) {
    chaos_->corrupt_costs(cost2_);
    chaos_->corrupt_rhs(b_);
  }
  if (opt_.sanitize_model) sanitize_computational_form();
  banned_.assign(num_cols(), 0);

  const bool explicit_budget = opt_.max_iterations > 0;
  SolveStatus result = SolveStatus::IterationLimit;
  bool solved = false;

  Basis corrupted_start;
  if (start != nullptr && chaos_ != nullptr &&
      chaos_->basis_corruption_armed()) {
    corrupted_start = *start;  // never mutate the caller's basis
    chaos_->corrupt_basis(corrupted_start);
    start = &corrupted_start;
  }

  if (start != nullptr && import_basis(*start)) {
    out.warm_start_attempted = true;
    const std::size_t flips = flip_to_dual_feasible();
    (void)flips;
    const std::size_t primal_bad = count_primal_infeasible();
    const std::size_t dual_bad = count_dual_infeasible();
    max_iter_ = explicit_budget
                    ? opt_.max_iterations
                    : automatic_iteration_budget(m_, num_cols(),
                                                 primal_bad + dual_bad);
    if (chaos_ != nullptr)
      max_iter_ = chaos_->cap_budget(iterations_, max_iter_);

    // Repair order: if the basis is dual feasible, the dual simplex fixes
    // the primal side cheaply; if it is primal feasible (dual side drifted),
    // the primal phase 2 is already a valid warm continuation. Neither →
    // the basis is not worth repairing; solve cold.
    SolveStatus s = SolveStatus::Optimal;
    bool usable = true;
    if (primal_bad > 0) {
      if (dual_bad == 0) {
        s = run_dual();
        if (s == SolveStatus::Infeasible) usable = false;  // cold decides
      } else {
        usable = false;
      }
    }
    if (usable && s == SolveStatus::Optimal) s = run_primal(cost2_);
    if (usable) {
      if (s == SolveStatus::Optimal || s == SolveStatus::Unbounded) {
        warm_used_ = true;
        result = s;
        solved = true;
      } else if (s == SolveStatus::IterationLimit && explicit_budget) {
        // The caller asked for exactly this budget; report the limit
        // honestly instead of silently buying more pivots.
        warm_used_ = true;
        result = s;
        solved = true;
      }
      // IterationLimit under an automatic budget: the delta-sized budget
      // was wrong for this repair — fall through to a cold solve.
    }
  }

  if (!solved) result = cold_solve();

  finalize(out, result);
  if (result != SolveStatus::Optimal) return out;

  // Final numerical refresh for clean output values.
  if (refactorize()) recompute_basics();

  for (std::size_t j = 0; j < n_user_; ++j) {
    const Variable& v = model_.variable(j);
    out.values[j] = std::clamp(value_[j], v.lower, v.upper);
  }
  out.objective = model_.objective_value(out.values);

  // Dual extraction: y = cB' Binv at the optimal basis. Because every row
  // carries a +1 slack, the dual of row i equals -(reduced cost of slack i)
  // = -(0 - y_i) = y_i directly.
  compute_y(cost2_);
  out.duals.assign(y_.begin(), y_.end());
  out.reduced_costs.resize(n_user_);
  for (std::size_t j = 0; j < n_user_; ++j) {
    out.reduced_costs[j] = status_[j] == Status::Basic
                               ? 0.0
                               : cost2_[j] - sparse_dot_y(j);
  }

  // Basis export (variables + row slacks; a basic artificial on a redundant
  // row simply leaves its slack nonbasic — importers complete the set).
  out.basis.variables.resize(n_user_);
  for (std::size_t j = 0; j < n_user_; ++j)
    out.basis.variables[j] = to_basis(status_[j]);
  out.basis.slacks.resize(m_);
  for (std::size_t i = 0; i < m_; ++i)
    out.basis.slacks[i] = to_basis(status_[n_user_ + i]);
  return out;
}

}  // namespace

LpSolution solve(const LpModel& model, const SolverOptions& options,
                 const Basis* start) {
  if (start != nullptr && start->empty()) start = nullptr;
  Engine engine(model, options);
  return engine.run(start);
}

}  // namespace lips::lp
