// Seeded-violation fixture for lips-lint's self-test. NOT part of the build:
// never compiled, only scanned by `lips_lint --self-test`. Every banned
// pattern below is tagged with `lint-expect(<rule>)`; the self-test fails
// unless lint flags exactly the tagged lines — so this file proves both that
// each rule fires and that the suppression / comment-stripping logic does
// not fire anywhere else.
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <random>
#include <unordered_map>
#include <unordered_set>

namespace fixture {

// --- raw-cost-double -------------------------------------------------------
struct Bill {
  double total_cost_mc = 0.0;        // lint-expect(raw-cost-double)
  double wasted_mc = 0.0;            // lint-expect(raw-cost-double)
  double input_bytes = 0.0;          // lint-expect(raw-cost-double)
  double runtime_secs = 0.0;         // lint-expect(raw-cost-double)
  double makespan_s = 0.0;           // OK: suffix not in the banned set
  int64_t count = 0;                 // OK: not a double
};
// Suppressed occurrence must NOT be reported:
inline double legacy_cost_mc() {     // lips-lint: allow(raw-cost-double)
  return 0.0;
}

// --- raw-rng ---------------------------------------------------------------
inline int bad_random() {
  std::random_device rd;             // lint-expect(raw-rng)
  std::srand(rd());                  // lint-expect(raw-rng) lint-expect(raw-rng)
  return std::rand();                // lint-expect(raw-rng)
}
// A comment mentioning rand() or std::random_device must not fire.

// --- unordered-iteration ---------------------------------------------------
inline std::size_t bad_iteration() {
  std::unordered_map<std::size_t, double> weights;
  std::unordered_set<std::size_t> members;
  std::size_t sum = 0;
  for (const auto& kv : weights) sum += kv.first;  // lint-expect(unordered-iteration)
  auto it = members.begin();                       // lint-expect(unordered-iteration)
  (void)it;
  // Membership lookups are fine:
  if (weights.count(0) != 0) ++sum;
  return sum;
}

// --- float-type ------------------------------------------------------------
inline float narrow(float x) { return x; }  // lint-expect(float-type) lint-expect(float-type)
// The word float inside this comment or a "float string" must not fire.

// --- nondet-time -----------------------------------------------------------
inline long bad_clock() {
  return std::time(nullptr) +        // lint-expect(nondet-time)
         std::clock();               // lint-expect(nondet-time)
}

// --- raw-stdout-in-lib -----------------------------------------------------
// The fixture opts into the src/-only gate (see stdout_banned in the linter).
inline void bad_report(double cost) {
  std::cout << "cost: " << cost;     // lint-expect(raw-stdout-in-lib)
  printf("%f", cost);                // lint-expect(raw-stdout-in-lib)
}
// std::cout in this comment or in a "std::cout string" must not fire, and
// neither must the prefixed printf variants:
inline void ok_report(char* buf, std::size_t n, double cost) {
  std::snprintf(buf, n, "%f", cost);  // OK: snprintf writes to a buffer
}
// A suppressed occurrence must not be reported either:
inline void legacy_report() { std::cout.flush(); }  // lips-lint: allow(raw-stdout-in-lib)

}  // namespace fixture
