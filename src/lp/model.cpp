#include "lp/model.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace lips::lp {

namespace {

// Diagnostics name the offending entity: a NaN that surfaces here was
// produced by some upstream cost computation, and "objective coefficient
// must be finite" without a variable name sends the debugger straight back
// to a print-statement hunt. Messages are built only on the throwing path,
// so the hot ingest loops pay one branch per check.

std::string show(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

std::string var_label(std::size_t index, const std::string& name) {
  std::ostringstream os;
  os << "variable #" << index;
  if (!name.empty()) os << " ('" << name << "')";
  return os.str();
}

std::string row_label(std::size_t index, const std::string& name) {
  std::ostringstream os;
  os << "row #" << index;
  if (!name.empty()) os << " ('" << name << "')";
  return os.str();
}

[[noreturn]] void fail(const std::string& message) {
  LIPS_REQUIRE(false, message);
  std::abort();  // unreachable; LIPS_REQUIRE(false, ...) always throws
}

}  // namespace

std::size_t LpModel::add_variable(double lower, double upper, double objective,
                                  std::string name) {
  const std::size_t j = variables_.size();
  if (std::isnan(lower) || std::isnan(upper))
    fail("bounds of " + var_label(j, name) + " must not be NaN (got [" +
         show(lower) + ", " + show(upper) + "])");
  if (!(lower <= upper))
    fail("lower bound of " + var_label(j, name) +
         " must be <= upper bound (got [" + show(lower) + ", " + show(upper) +
         "])");
  if (!std::isfinite(objective))
    fail("objective coefficient of " + var_label(j, name) +
         " must be finite (got " + show(objective) + ")");
  if (!(lower < kInf && upper > -kInf))
    fail("bounds of " + var_label(j, name) +
         " must leave a nonempty feasible interval (got [" + show(lower) +
         ", " + show(upper) + "])");
  variables_.push_back(Variable{lower, upper, objective, std::move(name)});
  return variables_.size() - 1;
}

std::size_t LpModel::add_constraint(std::span<const Entry> entries, Sense sense,
                                    double rhs, std::string name) {
  const std::size_t i = constraints_.size();
  if (!std::isfinite(rhs))
    fail("rhs of " + row_label(i, name) + " must be finite (got " + show(rhs) +
         ")");
  Constraint row;
  row.sense = sense;
  row.rhs = rhs;
  row.name = std::move(name);
  row.entries.assign(entries.begin(), entries.end());
  for (const Entry& e : row.entries) {
    if (e.var >= variables_.size())
      fail(row_label(i, row.name) + " references unknown variable index " +
           std::to_string(e.var));
    if (!std::isfinite(e.coeff))
      fail("coefficient of " + var_label(e.var, variables_[e.var].name) +
           " in " + row_label(i, row.name) + " must be finite (got " +
           show(e.coeff) + ")");
  }
  std::sort(row.entries.begin(), row.entries.end(),
            [](const Entry& a, const Entry& b) { return a.var < b.var; });
  // Merge duplicates and drop exact zeros.
  std::vector<Entry> merged;
  merged.reserve(row.entries.size());
  for (const Entry& e : row.entries) {
    if (!merged.empty() && merged.back().var == e.var) {
      merged.back().coeff += e.coeff;
    } else {
      merged.push_back(e);
    }
  }
  std::erase_if(merged, [](const Entry& e) { return e.coeff == 0.0; });
  row.entries = std::move(merged);
  constraints_.push_back(std::move(row));
  return constraints_.size() - 1;
}

void LpModel::set_rhs(std::size_t row, double rhs) {
  LIPS_REQUIRE(row < constraints_.size(), "constraint index out of range");
  if (!std::isfinite(rhs))
    fail("rhs of " + row_label(row, constraints_[row].name) +
         " must be finite (got " + show(rhs) + ")");
  constraints_[row].rhs = rhs;
}

void LpModel::set_objective(std::size_t var, double objective) {
  LIPS_REQUIRE(var < variables_.size(), "variable index out of range");
  if (!std::isfinite(objective))
    fail("objective coefficient of " +
         var_label(var, variables_[var].name) + " must be finite (got " +
         show(objective) + ")");
  variables_[var].objective = objective;
}

void LpModel::set_bounds(std::size_t var, double lower, double upper) {
  LIPS_REQUIRE(var < variables_.size(), "variable index out of range");
  const std::string& name = variables_[var].name;
  if (std::isnan(lower) || std::isnan(upper))
    fail("bounds of " + var_label(var, name) + " must not be NaN (got [" +
         show(lower) + ", " + show(upper) + "])");
  if (!(lower <= upper))
    fail("lower bound of " + var_label(var, name) +
         " must be <= upper bound (got [" + show(lower) + ", " + show(upper) +
         "])");
  if (!(lower < kInf && upper > -kInf))
    fail("bounds of " + var_label(var, name) +
         " must leave a nonempty feasible interval (got [" + show(lower) +
         ", " + show(upper) + "])");
  variables_[var].lower = lower;
  variables_[var].upper = upper;
}

double LpModel::objective_value(std::span<const double> x) const {
  LIPS_REQUIRE(x.size() == variables_.size(),
               "point dimension must match variable count");
  double v = 0.0;
  for (std::size_t j = 0; j < variables_.size(); ++j)
    v += variables_[j].objective * x[j];
  return v;
}

double LpModel::max_violation(std::span<const double> x) const {
  LIPS_REQUIRE(x.size() == variables_.size(),
               "point dimension must match variable count");
  double worst = 0.0;
  for (std::size_t j = 0; j < variables_.size(); ++j) {
    // A non-finite component is an unbounded violation, not a value that
    // std::max silently ignores (NaN compares false against everything).
    if (!std::isfinite(x[j])) return kInf;
    worst = std::max(worst, variables_[j].lower - x[j]);
    worst = std::max(worst, x[j] - variables_[j].upper);
  }
  for (const Constraint& row : constraints_) {
    double lhs = 0.0;
    for (const Entry& e : row.entries) lhs += e.coeff * x[e.var];
    switch (row.sense) {
      case Sense::LessEqual:
        worst = std::max(worst, lhs - row.rhs);
        break;
      case Sense::GreaterEqual:
        worst = std::max(worst, row.rhs - lhs);
        break;
      case Sense::Equal:
        worst = std::max(worst, std::fabs(lhs - row.rhs));
        break;
    }
  }
  return worst;
}

}  // namespace lips::lp
