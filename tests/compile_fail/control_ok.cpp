// Positive control for the try_compile harness: under the tree's flags,
// well-dimensioned arithmetic, float arithmetic that never meets a double,
// an explicit static_cast in either direction, and ckpt::sorted over hash
// containers (saved and loaded) must compile, proving the negative checks
// fail for the rule they test.
#include <cstddef>
#include <unordered_map>
#include <unordered_set>

#include "ckpt/codec.hpp"
#include "common/units.hpp"

int main() {
  const lips::Seconds t =
      lips::Bytes::mb(640.0) / lips::BytesPerSec::mb_per_s(10.0);
  const lips::Millicents c =
      lips::CpuSeconds::ecu_s(100.0) * lips::UsdPerCpuSec::mc_per_ecu_s(5.0);

  const float rate = 0.1f;
  const float twice = 2.0f * rate;
  const double bill = 3.0 * static_cast<double>(twice);
  const float back = static_cast<float>(bill);

  std::unordered_set<std::size_t> doomed{3, 1, 2};
  std::unordered_map<std::size_t, double> presence{{3, 0.5}, {1, 1.0}};
  lips::ckpt::Writer w;
  w(lips::ckpt::sorted(doomed), lips::ckpt::sorted(presence));
  lips::ckpt::Reader r(w.buffer());
  r(lips::ckpt::sorted(doomed), lips::ckpt::sorted(presence));

  const bool ok = t.secs() > 0.0 && c.mc() > 0.0 && back > 0.0f &&
                  doomed.size() == 3 && presence.size() == 2;
  return ok ? 0 : 1;
}
