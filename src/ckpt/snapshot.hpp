// Versioned, CRC-guarded snapshot container.
//
// File layout (all integers little-endian; see codec.hpp):
//
//   [0..8)   magic "LIPSCKPT"
//   [8..12)  u32 format version (kSnapshotVersion)
//   ...      header: SnapshotMeta (provenance, label, clock, epoch, seq)
//   ...      u64 payload length, then payload bytes (opaque to this layer;
//            the simulator owns the payload schema)
//   last 4   u32 CRC-32 over every preceding byte
//
// decode_snapshot throws SnapshotError on any violation — too short, bad
// magic, unsupported version, CRC mismatch, malformed header — and the
// checkpoint store treats every such file as dead, falling back to the
// previous good snapshot. The CRC is checked *first* (before any field is
// parsed), so a torn or bit-flipped file can never half-decode.
//
// Version policy: readers accept exactly kSnapshotVersion. Snapshots are
// cheap and periodic; cross-version migration is explicitly a non-goal
// (a new build re-checkpoints from a fresh run).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"

namespace lips::ckpt {

inline constexpr char kSnapshotMagic[8] = {'L', 'I', 'P', 'S',
                                           'C', 'K', 'P', 'T'};
inline constexpr std::uint32_t kSnapshotVersion = 4;

/// Self-describing header, readable without touching the payload.
struct SnapshotMeta {
  // Build provenance (common/build_info.hpp) — which build wrote this file.
  std::string git_sha;
  std::string compiler;
  std::string build_type;
  /// Run identity chosen by the writer (e.g. scheduler name + seed).
  std::string label;
  /// Simulation clock at the checkpoint consistency point.
  double sim_time_s = 0.0;
  /// Scheduler epoch index at the checkpoint.
  std::uint64_t epoch = 0;
  /// Monotone checkpoint counter within the run (also the filename index).
  std::uint64_t sequence = 0;
};

struct Snapshot {
  SnapshotMeta meta;
  std::vector<std::uint8_t> payload;
};

/// Serialize to the on-disk byte layout, CRC included.
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(const Snapshot& s);

/// Parse and validate; throws SnapshotError on any corruption.
[[nodiscard]] Snapshot decode_snapshot(const std::uint8_t* data,
                                       std::size_t n);
[[nodiscard]] Snapshot decode_snapshot(const std::vector<std::uint8_t>& buf);

}  // namespace lips::ckpt
