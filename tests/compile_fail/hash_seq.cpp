// MUST NOT COMPILE: ckpt::seq over a hash container would write its
// elements in hash order, which no snapshot may depend on; the codec's
// static_assert names ckpt::sorted instead (control_ok.cpp). A load
// already fails to compile, so the case is a save-only field.
#include <cstddef>
#include <unordered_set>

#include "ckpt/codec.hpp"

int main() {
  const std::unordered_set<std::size_t> doomed{3, 1, 2};
  lips::ckpt::Writer w;
  w(lips::ckpt::seq(doomed));
  return w.buffer().empty() ? 1 : 0;
}
