// Wire vocabulary of the lipsd line protocol (DESIGN.md §14).
//
// Framing: one request per '\n'-terminated line, `VERB[ <spec>]`, where
// <spec> is the repo's standard "k1=v1,k2=v2" form parsed with
// common/spec.hpp (SpecBinder owns duplicate/unknown-key/range
// diagnostics). Each request produces exactly one reply: zero or more data
// lines (`MOVE ...`, `PLAN ...`, `LEDGER ...`, `METRIC ...`) followed by one
// status line —
//
//   OK <seq>[ <spec>]        command applied; optional result spec
//   BUSY <seq>               session queue full — backpressure, retry later
//   ERR <seq> <code> <detail...>   command rejected; session intact
//
// <seq> is the 1-based count of request lines received on the connection,
// echoed so a pipelining client can correlate replies (a BUSY is emitted by
// the reader thread and can otherwise overtake a worker reply). A reply's
// lines are rendered into one buffer and written atomically, so replies
// never interleave mid-line.
//
// Doubles travel as C99 hexfloats ("0x1.8p+3", printf %a): strtod parses
// them back to the identical bit pattern, which is what lets a replayed
// session reproduce plans and ledgers bit for bit. Lists ride inside text
// values with ':' between scalars and ';' between records — both characters
// are disjoint from the ',' and '=' the spec layer owns and from the
// hexfloat alphabet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace lips::svc {

/// Hard cap on one request line (bytes, newline excluded). Oversized lines
/// are answered with ERR line-too-long and discarded without killing the
/// connection.
inline constexpr std::size_t kMaxLineBytes = 1 << 20;

/// Structured error codes (the <code> token of an ERR status line).
namespace err {
inline constexpr const char* kBadCommand = "bad-command";
inline constexpr const char* kBadSpec = "bad-spec";
inline constexpr const char* kLineTooLong = "line-too-long";
inline constexpr const char* kNulByte = "nul-byte";
inline constexpr const char* kNoSession = "no-session";
inline constexpr const char* kSessionExists = "session-exists";
inline constexpr const char* kBadState = "bad-state";
inline constexpr const char* kSnapshot = "snapshot";
inline constexpr const char* kInternal = "internal";
}  // namespace err

// --- scalar codecs ----------------------------------------------------------

/// printf %a rendering — round-trips through strtod bit-exactly.
[[nodiscard]] std::string hex_f64(double v);
/// strtod over the full value; throws PreconditionError on trailing junk.
[[nodiscard]] double parse_f64(const std::string& s);
/// Non-negative integer below 2^64; throws PreconditionError on anything
/// else.
[[nodiscard]] std::uint64_t parse_u64(const std::string& s);
/// Split on `sep`, skipping empty segments ("a::b" → {a, b}).
[[nodiscard]] std::vector<std::string> split(const std::string& s, char sep);
/// Permissive client-side "k1=v1,k2=v2" reader (order-preserving vector —
/// the server side keeps using SpecBinder for real validation).
[[nodiscard]] std::vector<std::pair<std::string, std::string>> parse_kv(
    const std::string& spec);
/// First value bound to `key`, or nullopt.
[[nodiscard]] std::optional<std::string> kv_get(
    const std::vector<std::pair<std::string, std::string>>& kv,
    const std::string& key);

// --- replies ----------------------------------------------------------------

struct Reply {
  enum class Status : unsigned char { Ok, Err, Busy };
  Status status = Status::Ok;
  std::string code;    ///< ERR only
  std::string detail;  ///< ERR detail, or the OK result spec
  std::vector<std::string> data;  ///< data lines, no trailing newline

  [[nodiscard]] static Reply ok(std::string spec = "");
  [[nodiscard]] static Reply error(std::string code, std::string detail);
  [[nodiscard]] static Reply busy();

  /// Render data lines + status line into one newline-terminated buffer.
  [[nodiscard]] std::string render(std::uint64_t seq) const;
};

// --- state mirror codec -----------------------------------------------------

/// One (data, store, fraction) presence cell; only non-zero cells travel.
struct WireFraction {
  std::size_t data = 0;
  std::size_t store = 0;
  double fraction = 0.0;
};

/// Snapshot of every ClusterState read the hosted policy can make, sent by
/// the client ahead of each event command (`STATE <spec>`). Absent keys mean
/// empty lists — machines/stores default to up, throughput to 1.0,
/// fractions to 0.
struct WireState {
  double now = 0.0;
  std::vector<std::size_t> pending;        ///< FIFO pending task ids
  std::vector<std::size_t> machines_down;  ///< down machine ids
  std::vector<std::size_t> stores_down;    ///< wiped store ids
  /// Observed-throughput factors, only entries != 1.0 (bitwise).
  std::vector<std::pair<std::size_t, double>> throughput;
  std::vector<WireFraction> fractions;  ///< non-zero presence cells
};

[[nodiscard]] std::string encode_state(const WireState& ws);
[[nodiscard]] WireState decode_state(const std::string& spec);

/// Task descriptor as materialized by the driving engine, streamed with its
/// job's `JOB` command so the server never re-derives task splitting.
struct WireTask {
  std::size_t id = 0;  ///< simulator task id (the pending()/SLOT currency)
  std::size_t job = 0;
  std::size_t index_in_job = 0;
  double input_mb = 0.0;
  double cpu_ecu_s = 0.0;
  std::optional<std::size_t> data;  ///< data object read; nullopt = Pi-like
};

[[nodiscard]] std::string encode_tasks(const std::vector<WireTask>& tasks);
[[nodiscard]] std::vector<WireTask> decode_tasks(const std::string& value);

}  // namespace lips::svc
