// Binary encode/decode primitives for the checkpoint subsystem.
//
// Snapshots must be byte-stable: the same run state always encodes to the
// same bytes, on every platform, so CRC guards and divergence digests mean
// something. The codec therefore commits to little-endian fixed-width
// integers and raw IEEE-754 bit patterns for doubles — a double that went
// through a decimal print/parse cycle could legally come back one ulp off,
// which would break the bit-identical resume contract (the `Millicents`
// ledger reconciles with `==`, not a tolerance).
//
// Writer/Reader are byte streams with no schema: framing, versioning, and
// CRC live one layer up in snapshot.hpp. Reader underrun or malformed
// variable-length fields throw SnapshotError — corruption is an expected
// runtime outcome with a recovery path (fall back to the previous good
// snapshot), not a programmer error.
//
// On top of the primitives sits one field vocabulary shared by both
// streams. A checkpointed type lists its fields once,
//
//   template <class Ar, class Self>
//   static void fields(Ar& ar, Self& self) {
//     ar(self.now_, ckpt::seq(self.pending_), ckpt::sorted(self.doomed_));
//   }
//
// and calls it from `save_state(Writer&) const` (Self = const T: the save
// path reads fields in place) and from `load_state(Reader&)` (Self = T).
// `ar(a, b, ...)` codes each argument in turn:
//
//   bool, char (a flag)          1 byte, 0 or 1 (anything else is corrupt)
//   int                          8 bytes, two's complement
//   std::uint64_t, std::size_t   8 bytes
//   double                       8 bytes, the IEEE-754 bit pattern
//   Quantity<...>                its raw() double
//   Fraction                     its value() double (clamped on load)
//   Id<Tag>                      its value()
//   std::optional<Id<Tag>>       a has-value flag, then value() or 0
//   std::string                  length, then the bytes
//   std::pair<A, B>              first, then second
//   std::array<T, N>             N elements, no length
//
// and the wrappers further down (seq, fixed, sorted, enumeration, guard,
// state, section, via) name every other layout. Enums have no implicit
// encoding: each names its last valid value so loads can reject the rest.
// Every length goes through Reader::count, so a hostile one fails before
// anything is allocated.
//
// Header-only so that layers below lips_ckpt (sched, core, lp, obs) can
// declare `save_state(Writer&)`/`load_state(Reader&)` hooks without a link
// dependency.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"

namespace lips::ckpt {

/// Thrown when snapshot bytes cannot be decoded (underrun, bad magic, CRC
/// mismatch, unsupported version, out-of-range field). Recoverable: the
/// checkpoint store catches it and falls back to the previous good snapshot
/// — for the framing and CRC always, and for the payload when the caller
/// restores through CheckpointDir::load_latest, as lipsd sessions do.
/// `lipsctl --restore` decodes payloads after the walk and exits 2 on one
/// that fails, since its simulator cannot tell an undecodable payload from
/// one written on another cluster.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

template <class T>
inline constexpr bool kIsQuantity = false;
template <int M, int D, int T, int C>
inline constexpr bool kIsQuantity<Quantity<M, D, T, C>> = true;

template <class T>
inline constexpr bool kIsId = false;
template <class Tag>
inline constexpr bool kIsId<Id<Tag>> = true;

template <class T>
inline constexpr bool kIsOptionalId = false;
template <class Tag>
inline constexpr bool kIsOptionalId<std::optional<Id<Tag>>> = true;

template <class T>
inline constexpr bool kIsPair = false;
template <class A, class B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;

template <class T>
inline constexpr bool kIsArray = false;
template <class T, std::size_t N>
inline constexpr bool kIsArray<std::array<T, N>> = true;

template <class T>
inline constexpr bool kIsWord =
    std::is_same_v<T, std::uint64_t> || std::is_same_v<T, std::size_t>;

}  // namespace detail

/// Append-only little-endian byte sink.
class Writer {
 public:
  static constexpr bool kLoading = false;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  /// std::size_t is always written as 8 bytes (32-bit hosts would truncate
  /// silently otherwise).
  void size(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Exact IEEE-754 bit pattern; NaNs round-trip too.
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    size(s.size());
    bytes(s.data(), s.size());
  }
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  /// Field vocabulary (see the file comment).
  template <class... T>
  void operator()(const T&... fields) {
    (put(fields), ...);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, char>) {
      boolean(v != 0);
    } else if constexpr (std::is_same_v<T, int>) {
      u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    } else if constexpr (detail::kIsWord<T>) {
      u64(v);
    } else if constexpr (std::is_same_v<T, double>) {
      f64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      str(v);
    } else if constexpr (std::is_same_v<T, Fraction>) {
      f64(v.value());
    } else if constexpr (detail::kIsQuantity<T>) {
      f64(v.raw());
    } else if constexpr (detail::kIsId<T>) {
      size(v.value());
    } else if constexpr (detail::kIsOptionalId<T>) {
      boolean(v.has_value());
      size(v ? v->value() : 0);
    } else if constexpr (detail::kIsPair<T>) {
      put(v.first);
      put(v.second);
    } else if constexpr (detail::kIsArray<T>) {
      for (const auto& e : v) put(e);
    } else {
      static_assert(!std::is_enum_v<T>,
                    "enums need ckpt::enumeration(value, last, what)");
      v.save(*this);  // a wrapper from the vocabulary below
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked mirror of Writer. Does not own the bytes.
class Reader {
 public:
  static constexpr bool kLoading = true;

  Reader(const std::uint8_t* data, std::size_t n) : data_(data), end_(n) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_++]} << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_++]} << (8 * i);
    return v;
  }
  std::size_t size() {
    const std::uint64_t v = u64();
    if constexpr (sizeof(std::size_t) < sizeof(std::uint64_t)) {
      if (v > std::uint64_t{SIZE_MAX})
        throw SnapshotError("size field overflows std::size_t");
    }
    return static_cast<std::size_t>(v);
  }
  /// A length field, checked before anything is allocated: `n` elements of
  /// at least `min_bytes` each must fit in the bytes left.
  std::size_t count(std::size_t min_bytes) {
    const std::uint64_t n = u64();
    if (n > remaining() / std::max<std::size_t>(min_bytes, 1))
      throw SnapshotError("snapshot length " + std::to_string(n) +
                          " cannot fit in the " + std::to_string(remaining()) +
                          " bytes left");
    return static_cast<std::size_t>(n);
  }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw SnapshotError("boolean field is not 0/1");
    return v != 0;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::size_t n = count(1);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  void bytes_into(void* dst, std::size_t n) {
    need(n);
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
  }

  /// Field vocabulary (see the file comment). Plain fields are overwritten;
  /// wrappers arrive as temporaries that refer to the fields.
  template <class... T>
  void operator()(T&&... fields) {
    (get(fields), ...);
  }

  [[nodiscard]] std::size_t remaining() const { return end_ - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == end_; }

 private:
  template <class T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = boolean();
    } else if constexpr (std::is_same_v<T, char>) {
      v = boolean() ? 1 : 0;
    } else if constexpr (std::is_same_v<T, int>) {
      v = static_cast<int>(static_cast<std::int64_t>(u64()));
    } else if constexpr (detail::kIsWord<T>) {
      v = size();
    } else if constexpr (std::is_same_v<T, double>) {
      v = f64();
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = str();
    } else if constexpr (std::is_same_v<T, Fraction>) {
      v = Fraction::of(f64());
    } else if constexpr (detail::kIsQuantity<T>) {
      v = T::from_raw(f64());
    } else if constexpr (detail::kIsId<T>) {
      v = T{size()};
    } else if constexpr (detail::kIsOptionalId<T>) {
      const bool has = boolean();
      const std::size_t id = size();
      v = has ? T{typename T::value_type{id}} : std::nullopt;
    } else if constexpr (detail::kIsPair<T>) {
      get(v.first);
      get(v.second);
    } else if constexpr (detail::kIsArray<T>) {
      for (auto& e : v) get(e);
    } else {
      static_assert(!std::is_enum_v<std::remove_const_t<T>>,
                    "enums need ckpt::enumeration(value, last, what)");
      v.load(*this);  // a wrapper from the vocabulary below
    }
  }

  void need(std::size_t n) const {
    if (end_ - pos_ < n)
      throw SnapshotError("snapshot truncated: needed " + std::to_string(n) +
                          " bytes, " + std::to_string(end_ - pos_) + " left");
  }
  const std::uint8_t* data_;
  std::size_t end_;
  std::size_t pos_ = 0;
};

// ---- wrappers --------------------------------------------------------------
// Each holds references to the fields it names (const ones on the save
// path) plus, for containers, the layout of one element as a callable
// `fn(ar, element)`; a map's element is its (key, value) pair. A wrapper
// built in an `ar(...)` call lives until that call returns.

/// Default element layout: `ar(element)`.
struct Each {
  template <class Ar, class E>
  void operator()(Ar& ar, E& e) const {
    ar(e);
  }
};

namespace detail {

/// Out of line on purpose: inlined after the probe's writes, the size read
/// trips a false -Wuse-after-free in GCC 12 at -O3.
[[gnu::noinline]] inline std::size_t written(const Writer& w) {
  return w.buffer().size();
}

/// The fewest bytes one element can take: what a default-constructed one
/// encodes to, since every nested length is then zero. Reader::count bounds
/// each length by it.
template <class E, class Fn>
std::size_t least_bytes(const Fn& fn) {
  E probe{};
  Writer w;
  fn(w, probe);
  return written(w);
}

template <class M>
concept KeyValue = requires { typename M::mapped_type; };
template <class M>
concept Ordered = requires { typename M::key_compare; };
template <class M>
concept Heap = requires { typename M::container_type; };
/// seq and fixed write elements in iteration order, which for a hash
/// container is no order at all: it must go through ckpt::sorted.
template <class C>
inline constexpr bool kIterationOrdered =
    !requires { typename std::remove_const_t<C>::hasher; };

/// What a container's load decodes one element into: a map entry's key
/// must be assignable, so maps decode (key, value) pairs.
template <class M>
struct Decoded {
  using type = typename M::value_type;
};
template <KeyValue M>
struct Decoded<M> {
  using type = std::pair<typename M::key_type, typename M::mapped_type>;
};

}  // namespace detail

/// Length-prefixed sequence (vector, deque). Loads resize to the length.
template <class C, class Fn>
struct Seq {
  static_assert(detail::kIterationOrdered<C>,
                "a hash container iterates in hash order; code it with "
                "ckpt::sorted");
  C& c;
  Fn fn;
  void save(Writer& w) const {
    w.size(c.size());
    for (const auto& e : c) fn(w, e);
  }
  void load(Reader& r) const {
    using E = typename std::remove_const_t<C>::value_type;
    const std::size_t n = r.count(detail::least_bytes<E>(fn));
    c.clear();
    c.resize(n);
    for (auto& e : c) fn(r, e);
  }
};
template <class C, class Fn = Each>
Seq<C, Fn> seq(C& c, Fn fn = {}) {
  return {c, fn};
}

/// Sequence with no length field: the loader's container already has the
/// right size (one element per task, machine, ...), guarded elsewhere.
template <class C, class Fn>
struct Fixed {
  static_assert(detail::kIterationOrdered<C>,
                "a hash container iterates in hash order; code it with "
                "ckpt::sorted");
  C& c;
  Fn fn;
  void save(Writer& w) const {
    for (const auto& e : c) fn(w, e);
  }
  void load(Reader& r) const {
    if constexpr (std::is_same_v<std::remove_const_t<C>, std::vector<bool>>) {
      for (std::size_t i = 0; i < c.size(); ++i) {
        bool b = false;
        fn(r, b);
        c[i] = b;
      }
    } else {
      for (auto& e : c) fn(r, e);
    }
  }
};
template <class C, class Fn = Each>
Fixed<C, Fn> fixed(C& c, Fn fn = {}) {
  return {c, fn};
}

/// Map, set or priority queue, length-prefixed, in ascending key order: an
/// ordered container is walked in place, a hash container through a sorted
/// index, a heap through a drained copy (pop order). A map entry is a
/// (key, value) pair. Loads insert (or push) each element.
template <class M, class Fn>
struct Sorted {
  using Bare = std::remove_const_t<M>;
  M& m;
  Fn fn;
  void save(Writer& w) const {
    w.size(m.size());
    if constexpr (detail::Heap<Bare>) {
      Bare queue = m;
      for (; !queue.empty(); queue.pop()) fn(w, queue.top());
    } else if constexpr (detail::Ordered<Bare>) {
      for (const auto& e : m) fn(w, e);
    } else {
      std::vector<const typename Bare::value_type*> index;
      index.reserve(m.size());
      for (const auto& e : m) index.push_back(&e);
      std::sort(index.begin(), index.end(), [](const auto* a, const auto* b) {
        if constexpr (detail::KeyValue<Bare>) return a->first < b->first;
        else return *a < *b;
      });
      for (const auto* e : index) fn(w, *e);
    }
  }
  void load(Reader& r) const {
    using E = typename detail::Decoded<Bare>::type;
    const std::size_t n = r.count(detail::least_bytes<E>(fn));
    m = Bare{};
    for (std::size_t i = 0; i < n; ++i) {
      E e{};
      fn(r, e);
      if constexpr (detail::Heap<Bare>) {
        m.push(std::move(e));
      } else if constexpr (detail::KeyValue<Bare>) {
        m.insert_or_assign(std::move(e.first), std::move(e.second));
      } else {
        m.insert(std::move(e));
      }
    }
  }
};
template <class M, class Fn = Each>
Sorted<M, Fn> sorted(M& m, Fn fn = {}) {
  return {m, fn};
}

/// Enum as one byte; loads reject any value past `last`.
template <class E>
struct Enum {
  E& e;
  std::remove_const_t<E> last;
  const char* what;
  void save(Writer& w) const { w.u8(static_cast<std::uint8_t>(e)); }
  void load(Reader& r) const {
    const std::uint8_t v = r.u8();
    if (v > static_cast<std::uint8_t>(last))
      throw SnapshotError(std::string("snapshot holds an unknown ") + what +
                          " (" + std::to_string(v) + ")");
    e = static_cast<E>(v);
  }
};
template <class E>
Enum<E> enumeration(E& e, std::type_identity_t<std::remove_const_t<E>> last,
                    const char* what) {
  return {e, last, what};
}
/// Element layout for a sequence of enums.
template <class E>
auto enums(E last, const char* what) {
  return [last, what](auto& ar, auto& e) { ar(enumeration(e, last, what)); };
}

/// A value the loader already knows — a topology size, a version, an owner
/// name. The writer writes it; the reader decodes the snapshot's value and
/// hands a mismatch to `on_mismatch(got)`, which must throw.
template <class T, class OnMismatch>
struct Guard {
  const T& want;
  OnMismatch on_mismatch;
  void save(Writer& w) const { w(want); }
  void load(Reader& r) const {
    T got{};
    r(got);
    if (!(got == want)) on_mismatch(got);
  }
};
template <class T, class OnMismatch>
Guard<T, OnMismatch> guard(const T& want, OnMismatch on_mismatch) {
  return {want, on_mismatch};
}
/// Guard a count; a mismatch throws SnapshotError naming `what`.
template <std::unsigned_integral T>
auto guard(const T& want, const char* what) {
  return guard(want, [want, what](const T& got) {
    throw SnapshotError(std::string("snapshot ") + what + " mismatch: " +
                        std::to_string(got) + " in the snapshot, " +
                        std::to_string(want) + " in this run");
  });
}

/// A member with its own `save_state(Writer&) const` / `load_state(Reader&)`
/// hooks, coded in place.
template <class T>
struct State {
  T& obj;
  void save(Writer& w) const { obj.save_state(w); }
  void load(Reader& r) const { obj.load_state(r); }
};
template <class T>
State<T> state(T& obj) {
  return {obj};
}

/// An optional attachment reached through a pointer: a presence flag, then
/// its state. Loading state the run has nowhere to put throws `missing`.
template <class P>
struct Section {
  P& ptr;
  const char* missing;
  void save(Writer& w) const {
    w.boolean(ptr != nullptr);
    if (ptr != nullptr) ptr->save_state(w);
  }
  void load(Reader& r) const {
    if (!r.boolean()) return;
    if (ptr == nullptr) throw SnapshotError(missing);
    ptr->load_state(r);
  }
};
template <class P>
Section<P> section(P& ptr, const char* missing) {
  return {ptr, missing};
}

/// A value behind an accessor pair (an RNG stream position, a running
/// digest): saved from `(obj.*get)()`, loaded through `(obj.*set)(value)`.
/// A decoded value the setter refuses is a decode failure.
template <class T, class Get, class Set>
struct Via {
  T& obj;
  Get get;
  Set set;
  void save(Writer& w) const { w((obj.*get)()); }
  void load(Reader& r) const {
    std::remove_cvref_t<decltype((obj.*get)())> v{};
    r(v);
    try {
      (obj.*set)(v);
    } catch (const PreconditionError& e) {
      throw SnapshotError(std::string("snapshot value refused: ") + e.what());
    }
  }
};
template <class T, class Get, class Set>
Via<T, Get, Set> via(T& obj, Get get, Set set) {
  return {obj, get, set};
}

/// CRC-32 (IEEE 802.3 polynomial, reflected). Guards every snapshot file.
[[nodiscard]] inline std::uint32_t crc32(const std::uint8_t* data,
                                         std::size_t n) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i)
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace lips::ckpt
