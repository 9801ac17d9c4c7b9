// Cost ledger — per-(epoch, job, machine, category) attribution of every
// millicent the simulator bills.
//
// The ledger exists to answer "where did this dollar go" at full resolution,
// and its correctness bar is *bit-identical* reconciliation against the
// simulator's own aggregate billing accumulators. Double addition is not
// associative, so that bar shapes the design: alongside the public cells the
// ledger keeps one running total per `CostMeter`, where each meter pairs 1:1
// with one simulator accumulator (execution, read transfer, placement
// transfer, ingest replication, wasted, speculation) and receives posts in
// the exact order the simulator applies its own `+=`. Folding the same value
// sequence through the same `+=` chain reproduces the accumulator bit for
// bit; `reconcile()` then compares with `==`, not a tolerance.
//
// The public reporting axis is the coarser category set from the paper's
// cost story {cpu, transfer, initial_placement, wasted_fault, speculation,
// fake_node_carry}; `category_of` maps each meter onto it (read transfer
// and ingest replication both report as `transfer`/`initial_placement`
// respectively — two meters can share a category, never the reverse).
//
// All amounts are `Millicents` from common/units.hpp end to end.
//
// Thread role: per-thread (LIPS_EXTERNALLY_SYNCHRONIZED). Bitwise
// reconciliation *requires* that posts fold in the simulator's own `+=`
// order, so a ledger can never be shared between concurrently-posting
// threads — interleaved folds would change the double association order and
// break the `==` bar even if every access were locked. The farm gives each
// worker its own ledger (one per seeded run, matching its simulator) and
// merges results after workers join; only MetricRegistry is shared live.
#pragma once

#include <array>
#include <cstddef>
#include <limits>
#include <map>

#include "ckpt/codec.hpp"
#include "common/thread_annotations.hpp"
#include "common/units.hpp"

namespace lips::obs {

/// Reporting category of a ledger cell (the paper's cost taxonomy).
enum class CostCategory : unsigned char {
  Cpu,               ///< task execution (CPU-seconds × spot price)
  Transfer,          ///< runtime store→machine read transfer
  InitialPlacement,  ///< LP data moves + HDFS ingest replication
  WastedFault,       ///< spend voided by faults / kills / aborted moves
  Speculation,       ///< duplicate-instance insurance spend
  FakeNodeCarry,     ///< LP fake-node deferral charge carried across epochs
};
inline constexpr std::size_t kCategoryCount = 6;
[[nodiscard]] const char* to_string(CostCategory c);

/// Billing meter: pairs 1:1 with one simulator billing accumulator (plus
/// FakeNodeCarry, which pairs with LipsPolicy's carry accumulator). The
/// meter, not the category, is the reconciliation unit.
enum class CostMeter : unsigned char {
  Execution,          ///< SimResult::execution_cost_mc
  ReadTransfer,       ///< SimResult::read_transfer_cost_mc
  PlacementTransfer,  ///< SimResult::placement_transfer_cost_mc
  IngestReplication,  ///< SimResult::ingest_replication_cost_mc
  Wasted,             ///< SimResult::wasted_cost_mc
  Speculation,        ///< SimResult::speculation_cost_mc
  FakeNodeCarry,      ///< core::LipsPolicy::fake_node_carry_mc()
};
inline constexpr std::size_t kMeterCount = 7;
[[nodiscard]] const char* to_string(CostMeter m);
[[nodiscard]] CostCategory category_of(CostMeter m);

class LIPS_EXTERNALLY_SYNCHRONIZED CostLedger {
 public:
  /// Sentinel for posts with no job / machine attribution (e.g. ingest
  /// replication happens before any task exists).
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  struct CellKey {
    std::size_t epoch = 0;
    std::size_t job = kNone;
    std::size_t machine = kNone;
    CostCategory category = CostCategory::Cpu;
    [[nodiscard]] auto operator<=>(const CellKey&) const = default;
  };

  /// The epoch stamped onto subsequent posts. The simulator advances this on
  /// every epoch tick; epoch 0 covers initial placement and the first plan
  /// interval.
  void set_current_epoch(std::size_t e) { epoch_ = e; }
  [[nodiscard]] std::size_t current_epoch() const { return epoch_; }

  /// Record one billing event. MUST be called at the same program point, with
  /// the same value, as the simulator's own accumulator `+=` — per-meter
  /// totals fold posts in arrival order, and bitwise reconciliation depends
  /// on matching the simulator's fold order exactly.
  void post(CostMeter meter, Millicents amount, std::size_t job = kNone,
            std::size_t machine = kNone);

  [[nodiscard]] Millicents meter_total(CostMeter m) const {
    return totals_[static_cast<std::size_t>(m)];
  }
  [[nodiscard]] Millicents category_total(CostCategory c) const;

  /// ((execution + read) + placement) + ingest — the same association order
  /// `SimResult::total_cost_mc` uses, so equality against it is bitwise.
  [[nodiscard]] Millicents billed_total() const;

  [[nodiscard]] const std::map<CellKey, Millicents>& cells() const {
    return cells_;
  }
  [[nodiscard]] std::size_t posts() const { return posts_; }

  /// The simulator's aggregate accumulators, copied out for reconciliation
  /// (a plain struct so lips_obs does not depend on lips_sim; the simulator
  /// provides the adapter `sim::billed_totals`).
  struct BilledTotals {
    Millicents execution;
    Millicents read_transfer;
    Millicents placement_transfer;
    Millicents ingest_replication;
    Millicents wasted;
    Millicents speculation;
  };

  struct Reconciliation {
    bool ok = true;
    /// ledger − billed per meter, zero when that meter matches. The
    /// FakeNodeCarry slot is always zero here: the carry reconciles against
    /// the policy, not the simulator (see meter comments).
    std::array<Millicents, kMeterCount> delta{};
  };

  /// Bitwise comparison of the six simulator-backed meters against the
  /// simulator's accumulators. `ok` iff every meter matches exactly.
  [[nodiscard]] Reconciliation reconcile(const BilledTotals& billed) const;

  /// Checkpoint hooks (DESIGN.md §11), shared by the simulator and lipsd
  /// sessions. Loading overwrites the entire ledger; the running totals
  /// keep their bit patterns, so a resumed run's subsequent `+=` chain
  /// still reconciles with `==` against the simulator's accumulators.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& self);

  std::size_t epoch_ = 0;
  std::array<Millicents, kMeterCount> totals_{};
  std::map<CellKey, Millicents> cells_;
  std::size_t posts_ = 0;
};

}  // namespace lips::obs
