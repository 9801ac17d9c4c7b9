#include "lp/dense_simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace lips::lp {

namespace {

// How each user variable was transformed into the nonnegative tableau
// variable(s).
enum class VarTransform {
  Shifted,     // x = x' + lower                     (finite lower)
  Reflected,   // x = upper - x'                     (lower = -inf, finite upper)
  Split,       // x = x'_plus - x'_minus             (both bounds infinite)
};

struct VarMap {
  VarTransform transform = VarTransform::Shifted;
  std::size_t col = 0;        // primary tableau column
  std::size_t col_minus = 0;  // secondary column for Split
  double shift = 0.0;         // `lower` for Shifted, `upper` for Reflected
};

struct Tableau {
  // Row-major dense matrix: rows_ x cols_ body, plus rhs vector.
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> a;    // rows * cols
  std::vector<double> rhs;  // rows

  double& at(std::size_t r, std::size_t c) { return a[r * cols + c]; }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return a[r * cols + c];
  }
};

constexpr double kZeroSnap = 1e-11;

}  // namespace

LpSolution DenseSimplexSolver::solve(const LpModel& model) const {
  const std::size_t n_user = model.num_variables();

  LpSolution out;
  out.values.assign(n_user, 0.0);

  // ---- 1. Map user variables to nonnegative tableau variables. -----------
  std::vector<VarMap> vmap(n_user);
  std::size_t n_struct = 0;  // structural tableau columns
  for (std::size_t j = 0; j < n_user; ++j) {
    const Variable& v = model.variable(j);
    VarMap& m = vmap[j];
    if (v.lower > -kInf) {
      m.transform = VarTransform::Shifted;
      m.shift = v.lower;
      m.col = n_struct++;
    } else if (v.upper < kInf) {
      m.transform = VarTransform::Reflected;
      m.shift = v.upper;
      m.col = n_struct++;
    } else {
      m.transform = VarTransform::Split;
      m.col = n_struct++;
      m.col_minus = n_struct++;
    }
  }

  // ---- 2. Build the row set: user rows + finite-range upper-bound rows. --
  struct Row {
    std::vector<Entry> entries;  // over tableau structural columns
    Sense sense;
    double rhs;
  };
  std::vector<Row> rows;
  rows.reserve(model.num_constraints() + n_user);
  // Bound row index per boxed variable (needed for reduced-cost extraction:
  // the bound row's dual is the multiplier on the variable's upper bound).
  std::vector<std::size_t> bound_row(n_user, SIZE_MAX);

  for (const Constraint& c : model.constraints()) {
    Row r;
    r.sense = c.sense;
    r.rhs = c.rhs;
    for (const Entry& e : c.entries) {
      const VarMap& m = vmap[e.var];
      switch (m.transform) {
        case VarTransform::Shifted:
          r.entries.push_back({m.col, e.coeff});
          r.rhs -= e.coeff * m.shift;
          break;
        case VarTransform::Reflected:
          r.entries.push_back({m.col, -e.coeff});
          r.rhs -= e.coeff * m.shift;
          break;
        case VarTransform::Split:
          r.entries.push_back({m.col, e.coeff});
          r.entries.push_back({m.col_minus, -e.coeff});
          break;
      }
    }
    rows.push_back(std::move(r));
  }
  // Upper-bound rows x' <= range for variables with both bounds finite.
  for (std::size_t j = 0; j < n_user; ++j) {
    const Variable& v = model.variable(j);
    if (v.lower > -kInf && v.upper < kInf) {
      Row r;
      r.sense = Sense::LessEqual;
      r.rhs = v.upper - v.lower;
      r.entries.push_back({vmap[j].col, 1.0});
      bound_row[j] = rows.size();
      rows.push_back(std::move(r));
    }
  }

  const std::size_t m = rows.size();

  // Degenerate case: no rows at all. Optimal is each variable at the bound
  // favored by its objective sign (or unbounded).
  if (m == 0) {
    for (std::size_t j = 0; j < n_user; ++j) {
      const Variable& v = model.variable(j);
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
    out.objective = model.objective_value(out.values);
    // No rows, so no duals; reduced costs are the raw objective coefficients.
    out.reduced_costs.resize(n_user);
    for (std::size_t j = 0; j < n_user; ++j)
      out.reduced_costs[j] = model.variable(j).objective;
    return out;
  }

  // ---- 3. Normalize rhs >= 0, add slack/surplus/artificial columns. ------
  std::vector<char> row_flipped(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    Row& r = rows[i];
    if (r.rhs < 0) {
      row_flipped[i] = 1;
      r.rhs = -r.rhs;
      for (Entry& e : r.entries) e.coeff = -e.coeff;
      if (r.sense == Sense::LessEqual) {
        r.sense = Sense::GreaterEqual;
      } else if (r.sense == Sense::GreaterEqual) {
        r.sense = Sense::LessEqual;
      }
    }
  }

  std::size_t n_slack = 0, n_art = 0;
  for (const Row& r : rows) {
    if (r.sense != Sense::Equal) ++n_slack;
    if (r.sense != Sense::LessEqual) ++n_art;
  }
  const std::size_t cols = n_struct + n_slack + n_art;
  const std::size_t art_begin = n_struct + n_slack;

  Tableau t;
  t.rows = m;
  t.cols = cols;
  t.a.assign(m * cols, 0.0);
  t.rhs.assign(m, 0.0);

  std::vector<std::size_t> basis(m);  // basic column per row
  // Per row, a column whose tableau coefficients are exactly +e_i (the LE
  // slack, or the GE/Equal artificial). At optimality its reduced cost is
  // 0 - y'e_i, so the row's dual (in normalized space) is -z2 of that column.
  std::vector<std::size_t> row_dual_col(m, 0);
  {
    std::size_t slack_at = n_struct;
    std::size_t art_at = art_begin;
    for (std::size_t i = 0; i < m; ++i) {
      const Row& r = rows[i];
      for (const Entry& e : r.entries) t.at(i, e.var) += e.coeff;
      t.rhs[i] = r.rhs;
      if (r.sense == Sense::LessEqual) {
        t.at(i, slack_at) = 1.0;
        row_dual_col[i] = slack_at;
        basis[i] = slack_at++;
      } else if (r.sense == Sense::GreaterEqual) {
        t.at(i, slack_at) = -1.0;
        ++slack_at;
        t.at(i, art_at) = 1.0;
        row_dual_col[i] = art_at;
        basis[i] = art_at++;
      } else {  // Equal
        t.at(i, art_at) = 1.0;
        row_dual_col[i] = art_at;
        basis[i] = art_at++;
      }
    }
  }

  // Objective coefficients in tableau-variable space.
  std::vector<double> cost(cols, 0.0);
  double obj_const = 0.0;  // objective contribution of shifts/reflections
  for (std::size_t j = 0; j < n_user; ++j) {
    const Variable& v = model.variable(j);
    const VarMap& mp = vmap[j];
    switch (mp.transform) {
      case VarTransform::Shifted:
        cost[mp.col] += v.objective;
        obj_const += v.objective * mp.shift;
        break;
      case VarTransform::Reflected:
        cost[mp.col] -= v.objective;
        obj_const += v.objective * mp.shift;
        break;
      case VarTransform::Split:
        cost[mp.col] += v.objective;
        cost[mp.col_minus] -= v.objective;
        break;
    }
  }

  // Reduced-cost rows. z1 drives phase 1 (sum of artificials), z2 phase 2.
  std::vector<double> z1(cols, 0.0), z2(cols, 0.0);
  double z1_rhs = 0.0, z2_rhs = 0.0;
  for (std::size_t c = art_begin; c < cols; ++c) z1[c] = 1.0;
  for (std::size_t c = 0; c < cols; ++c) z2[c] = cost[c];
  // Price out the initial basis from both objective rows.
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t b = basis[i];
    if (z1[b] != 0.0) {
      const double f = z1[b];
      for (std::size_t c = 0; c < cols; ++c) z1[c] -= f * t.at(i, c);
      z1_rhs -= f * t.rhs[i];
    }
    // z2: initial basic slacks have zero cost; artificials too. Nothing to do
    // unless a structural were basic (it is not at this point).
  }

  std::size_t max_iter = options_.max_iterations;
  if (max_iter == 0) max_iter = 200 + 50 * (m + cols);
  std::size_t iterations = 0;

  std::vector<bool> banned(cols, false);  // artificials barred from re-entry

  auto pivot = [&](std::size_t pr, std::size_t pc) {
    const double pv = t.at(pr, pc);
    LIPS_ASSERT(std::fabs(pv) > kZeroSnap, "pivot on (near-)zero element");
    const double inv = 1.0 / pv;
    for (std::size_t c = 0; c < cols; ++c) t.at(pr, c) *= inv;
    t.rhs[pr] *= inv;
    t.at(pr, pc) = 1.0;  // snap exact
    for (std::size_t r = 0; r < m; ++r) {
      if (r == pr) continue;
      const double f = t.at(r, pc);
      if (f == 0.0) continue;
      for (std::size_t c = 0; c < cols; ++c) {
        double nv = t.at(r, c) - f * t.at(pr, c);
        if (std::fabs(nv) < kZeroSnap) nv = 0.0;
        t.at(r, c) = nv;
      }
      t.at(r, pc) = 0.0;
      t.rhs[r] -= f * t.rhs[pr];
      if (std::fabs(t.rhs[r]) < kZeroSnap) t.rhs[r] = 0.0;
    }
    auto update_z = [&](std::vector<double>& z, double& zr) {
      const double f = z[pc];
      if (f == 0.0) return;
      for (std::size_t c = 0; c < cols; ++c) {
        double nv = z[c] - f * t.at(pr, c);
        if (std::fabs(nv) < kZeroSnap) nv = 0.0;
        z[c] = nv;
      }
      z[pc] = 0.0;
      zr -= f * t.rhs[pr];
    };
    update_z(z1, z1_rhs);
    update_z(z2, z2_rhs);
    basis[pr] = pc;
  };

  // Run the simplex on objective row `z` (whose value is -z_rhs). Returns
  // Optimal/Unbounded/IterationLimit. `limit_cols` restricts entering
  // columns to < limit.
  auto run = [&](std::vector<double>& z, const double& z_rhs,
                 std::size_t limit_cols) {
    std::size_t stall = 0;
    double last_obj = std::numeric_limits<double>::infinity();
    while (true) {
      if (iterations >= max_iter) return SolveStatus::IterationLimit;

      // Entering column: Dantzig rule normally, Bland when stalling.
      const bool bland = stall > m + 16;
      std::size_t pc = cols;
      double best = -kTolerance;
      for (std::size_t c = 0; c < limit_cols; ++c) {
        if (banned[c]) continue;
        const double rc = z[c];
        if (rc < -kTolerance) {
          if (bland) {
            pc = c;
            break;
          }
          if (rc < best) {
            best = rc;
            pc = c;
          }
        }
      }
      if (pc == cols) return SolveStatus::Optimal;

      // Ratio test (Bland tie-break on basis index).
      std::size_t pr = m;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < m; ++r) {
        const double arc = t.at(r, pc);
        if (arc > kTolerance) {
          const double ratio = t.rhs[r] / arc;
          if (ratio < best_ratio - 1e-12 ||
              (ratio < best_ratio + 1e-12 && pr != m &&
               basis[r] < basis[pr])) {
            best_ratio = ratio;
            pr = r;
          }
        }
      }
      if (pr == m) return SolveStatus::Unbounded;

      pivot(pr, pc);
      ++iterations;

      // Stall detection for Bland switch: the active objective value is
      // monotone nonincreasing, so no strict decrease means degeneracy.
      const double cur = -z_rhs;
      if (cur >= last_obj - 1e-13) {
        ++stall;
      } else {
        stall = 0;
      }
      last_obj = cur;
    }
  };

  // ---- Phase 1 ------------------------------------------------------------
  if (n_art > 0) {
    const SolveStatus s = run(z1, z1_rhs, cols);
    if (s == SolveStatus::IterationLimit) {
      out.status = s;
      out.iterations = iterations;
      return out;
    }
    LIPS_ASSERT(s != SolveStatus::Unbounded,
                "phase-1 objective is bounded below by 0");
    const double art_sum = -z1_rhs;  // phase-1 objective value
    if (art_sum > 1e-6) {
      out.status = SolveStatus::Infeasible;
      out.iterations = iterations;
      return out;
    }
    // Drive any degenerate artificials out of the basis where possible.
    for (std::size_t r = 0; r < m; ++r) {
      if (basis[r] < art_begin) continue;
      std::size_t pc = cols;
      for (std::size_t c = 0; c < art_begin; ++c) {
        if (!banned[c] && std::fabs(t.at(r, c)) > 1e-7) {
          pc = c;
          break;
        }
      }
      if (pc != cols) {
        pivot(r, pc);
        ++iterations;
      }
      // If no eligible column, the row is redundant; the artificial stays
      // basic at value 0 and is harmless as long as it cannot re-enter.
    }
    for (std::size_t c = art_begin; c < cols; ++c) banned[c] = true;
  }

  // ---- Phase 2 ------------------------------------------------------------
  {
    const SolveStatus s = run(z2, z2_rhs, art_begin);
    if (s != SolveStatus::Optimal) {
      out.status = s;
      out.iterations = iterations;
      return out;
    }
  }

  // ---- Extract solution in user space. ------------------------------------
  std::vector<double> xt(cols, 0.0);
  for (std::size_t r = 0; r < m; ++r) xt[basis[r]] = t.rhs[r];
  for (std::size_t j = 0; j < n_user; ++j) {
    const VarMap& mp = vmap[j];
    switch (mp.transform) {
      case VarTransform::Shifted:
        out.values[j] = xt[mp.col] + mp.shift;
        break;
      case VarTransform::Reflected:
        out.values[j] = mp.shift - xt[mp.col];
        break;
      case VarTransform::Split:
        out.values[j] = xt[mp.col] - xt[mp.col_minus];
        break;
    }
    // Clean tiny numerical noise against the variable's own bounds.
    const Variable& v = model.variable(j);
    out.values[j] = std::clamp(out.values[j], v.lower, v.upper);
  }
  out.status = SolveStatus::Optimal;
  out.objective = model.objective_value(out.values);
  out.iterations = iterations;
  (void)obj_const;  // objective recomputed directly from user values

  // ---- Extract duals and reduced costs. -----------------------------------
  // The z2 row holds c_j - y'A_j for every tableau column, so each row's
  // unit column yields its dual and each variable's column(s) its reduced
  // cost; flipped rows and Reflected variables negate, and a boxed
  // variable's bound-row dual is the multiplier on its upper bound.
  out.duals.resize(model.num_constraints());
  for (std::size_t i = 0; i < model.num_constraints(); ++i) {
    const double y_norm = -z2[row_dual_col[i]];
    out.duals[i] = row_flipped[i] ? -y_norm : y_norm;
  }
  out.reduced_costs.resize(n_user);
  for (std::size_t j = 0; j < n_user; ++j) {
    const VarMap& mp = vmap[j];
    switch (mp.transform) {
      case VarTransform::Shifted: {
        double d = z2[mp.col];
        if (bound_row[j] != SIZE_MAX) d -= z2[row_dual_col[bound_row[j]]];
        out.reduced_costs[j] = d;
        break;
      }
      case VarTransform::Reflected:
        out.reduced_costs[j] = -z2[mp.col];
        break;
      case VarTransform::Split:
        out.reduced_costs[j] = z2[mp.col];
        break;
    }
  }
  return out;
}

}  // namespace lips::lp
