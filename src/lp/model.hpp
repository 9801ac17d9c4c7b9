// Linear-program model builder.
//
// LiPS (paper §IV–V) formulates scheduling as linear programs of the shape
//
//     minimize    c'x
//     subject to  a_i'x  {<=, >=, =}  b_i        for each row i
//                 l_j <= x_j <= u_j               for each variable j
//
// This module is the solver-agnostic model: callers (the LiPS model builders
// in src/core) create variables with bounds and objective coefficients, then
// add sparse constraint rows. The solver (lp::solve, the revised simplex in
// this directory) and its certificate (lp::certify) read the model only.
//
// The paper used GLPK; we implement the solver substrate from scratch (see
// DESIGN.md §2).
#pragma once

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace lips::lp {

/// Positive infinity used for unbounded variable bounds.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Constraint sense.
enum class Sense { LessEqual, GreaterEqual, Equal };

/// One nonzero of a constraint row: coefficient `coeff` on variable `var`.
struct Entry {
  std::size_t var = 0;
  double coeff = 0.0;
};

/// Variable metadata.
struct Variable {
  double lower = 0.0;
  double upper = kInf;
  double objective = 0.0;
  std::string name;
};

/// Constraint metadata; `entries` is sorted by variable index with duplicate
/// indices merged (the model builder normalizes on insertion).
struct Constraint {
  std::vector<Entry> entries;
  Sense sense = Sense::LessEqual;
  double rhs = 0.0;
  std::string name;
};

/// A minimization LP under construction / being solved.
///
/// Invariants enforced on insertion: finite coefficients and rhs, lower <=
/// upper, valid variable indices, normalized (sorted, merged) rows. A
/// violation throws PreconditionError whose message names the offending
/// variable/row (index plus name when one was given) and the bad value, so
/// a NaN produced upstream is attributable without a debugger.
class LpModel {
 public:
  /// Add a variable with bounds [lower, upper] and objective coefficient.
  /// Returns its dense index.
  std::size_t add_variable(double lower, double upper, double objective,
                           std::string name = {});

  /// Add a constraint row. Entries may be unsorted and may repeat a
  /// variable (coefficients are summed). Returns the row index.
  std::size_t add_constraint(std::span<const Entry> entries, Sense sense,
                             double rhs, std::string name = {});

  [[nodiscard]] std::size_t num_variables() const { return variables_.size(); }
  [[nodiscard]] std::size_t num_constraints() const { return constraints_.size(); }

  [[nodiscard]] const Variable& variable(std::size_t j) const {
    LIPS_REQUIRE(j < variables_.size(), "variable index out of range");
    return variables_[j];
  }
  [[nodiscard]] const Constraint& constraint(std::size_t i) const {
    LIPS_REQUIRE(i < constraints_.size(), "constraint index out of range");
    return constraints_[i];
  }

  [[nodiscard]] const std::vector<Variable>& variables() const { return variables_; }
  [[nodiscard]] const std::vector<Constraint>& constraints() const {
    return constraints_;
  }

  /// In-place mutators for incremental re-solves (EpochLpContext): a cached
  /// model's numerics can be updated between epochs without rebuilding the
  /// row structure. None of these change the sparsity pattern, so a basis
  /// exported from the previous solve stays structurally valid.
  void set_rhs(std::size_t row, double rhs);
  void set_objective(std::size_t var, double objective);
  void set_bounds(std::size_t var, double lower, double upper);

  /// Evaluate the objective at a point (size must match num_variables).
  [[nodiscard]] double objective_value(std::span<const double> x) const;

  /// Maximum bound/constraint violation of a point (0 means feasible).
  /// Useful for tests and for validating solver output independently.
  [[nodiscard]] double max_violation(std::span<const double> x) const;

 private:
  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
};

}  // namespace lips::lp
