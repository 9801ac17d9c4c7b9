#include "obs/ledger.hpp"

#include "common/error.hpp"

namespace lips::obs {

const char* to_string(CostCategory c) {
  switch (c) {
    case CostCategory::Cpu:
      return "cpu";
    case CostCategory::Transfer:
      return "transfer";
    case CostCategory::InitialPlacement:
      return "initial_placement";
    case CostCategory::WastedFault:
      return "wasted_fault";
    case CostCategory::Speculation:
      return "speculation";
    case CostCategory::FakeNodeCarry:
      return "fake_node_carry";
  }
  return "?";
}

const char* to_string(CostMeter m) {
  switch (m) {
    case CostMeter::Execution:
      return "execution";
    case CostMeter::ReadTransfer:
      return "read_transfer";
    case CostMeter::PlacementTransfer:
      return "placement_transfer";
    case CostMeter::IngestReplication:
      return "ingest_replication";
    case CostMeter::Wasted:
      return "wasted";
    case CostMeter::Speculation:
      return "speculation";
    case CostMeter::FakeNodeCarry:
      return "fake_node_carry";
  }
  return "?";
}

CostCategory category_of(CostMeter m) {
  switch (m) {
    case CostMeter::Execution:
      return CostCategory::Cpu;
    case CostMeter::ReadTransfer:
      return CostCategory::Transfer;
    case CostMeter::PlacementTransfer:
    case CostMeter::IngestReplication:
      return CostCategory::InitialPlacement;
    case CostMeter::Wasted:
      return CostCategory::WastedFault;
    case CostMeter::Speculation:
      return CostCategory::Speculation;
    case CostMeter::FakeNodeCarry:
      return CostCategory::FakeNodeCarry;
  }
  return CostCategory::Cpu;
}

void CostLedger::post(CostMeter meter, Millicents amount, std::size_t job,
                      std::size_t machine) {
  LIPS_REQUIRE(amount.finite(), "ledger post must be finite");
  // Meter totals use the same `+=` the simulator accumulators use, in the
  // same arrival order — that is the whole bitwise-reconciliation contract.
  totals_[static_cast<std::size_t>(meter)] += amount;
  cells_[CellKey{epoch_, job, machine, category_of(meter)}] += amount;
  ++posts_;
}

Millicents CostLedger::category_total(CostCategory c) const {
  Millicents sum;
  for (std::size_t m = 0; m < kMeterCount; ++m)
    if (category_of(static_cast<CostMeter>(m)) == c) sum += totals_[m];
  return sum;
}

Millicents CostLedger::billed_total() const {
  return meter_total(CostMeter::Execution) +
         meter_total(CostMeter::ReadTransfer) +
         meter_total(CostMeter::PlacementTransfer) +
         meter_total(CostMeter::IngestReplication);
}

CostLedger::Reconciliation CostLedger::reconcile(
    const BilledTotals& billed) const {
  Reconciliation rec;
  const auto check = [&](CostMeter m, Millicents b) {
    const Millicents have = meter_total(m);
    rec.delta[static_cast<std::size_t>(m)] = have - b;
    if (have != b) rec.ok = false;
  };
  check(CostMeter::Execution, billed.execution);
  check(CostMeter::ReadTransfer, billed.read_transfer);
  check(CostMeter::PlacementTransfer, billed.placement_transfer);
  check(CostMeter::IngestReplication, billed.ingest_replication);
  check(CostMeter::Wasted, billed.wasted);
  check(CostMeter::Speculation, billed.speculation);
  return rec;
}

template <class Ar, class Self>
void CostLedger::fields(Ar& ar, Self& self) {
  ar(self.epoch_, self.totals_,
     ckpt::sorted(self.cells_,
                  [](auto& a, auto& cell) {
                    auto& key = cell.first;
                    a(key.epoch, key.job, key.machine,
                      ckpt::enumeration(key.category,
                                        CostCategory::FakeNodeCarry,
                                        "cost category"),
                      cell.second);
                  }),
     self.posts_);
}

void CostLedger::save_state(ckpt::Writer& w) const { fields(w, *this); }

void CostLedger::load_state(ckpt::Reader& r) { fields(r, *this); }

}  // namespace lips::obs
