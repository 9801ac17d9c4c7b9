// MUST NOT COMPILE: ckpt::fixed over a hash container, like ckpt::seq,
// would write its elements in hash order (see hash_seq.cpp).
#include <cstddef>
#include <unordered_map>

#include "ckpt/codec.hpp"

int main() {
  const std::unordered_map<std::size_t, double> presence{{3, 0.5}, {1, 1.0}};
  lips::ckpt::Writer w;
  w(lips::ckpt::fixed(presence));
  return w.buffer().empty() ? 1 : 0;
}
