// On-disk checkpoint directory: atomic writes, newest-good-wins recovery.
//
// Write discipline (crash-consistent on POSIX):
//   1. encode the snapshot (CRC included) into memory;
//   2. write it to `<dir>/.ckpt-<seq>.tmp`, fflush + fsync;
//   3. rename(2) onto `<dir>/ckpt-<seq>.lips` — atomic within a filesystem.
// A crash before (3) leaves only a `.tmp` the reader never considers; a
// crash after (3) leaves a fully-synced file. There is no window in which
// `ckpt-*.lips` names a partial write — torn snapshot *files* therefore only
// arise from hardware/filesystem misbehaviour, which is exactly what the
// seeded write-fault injector simulates (write_faults.hpp) so the recovery
// path stays tested.
//
// Recovery discipline: load_latest() scans `ckpt-*.lips` newest-first and
// returns the first file that decodes cleanly, reporting every skipped
// (corrupt/torn/truncated) file to the caller. A caller that also hands it
// a restore step gets the same fallback past a snapshot whose framing and
// CRC pass but whose payload does not decode: lipsd sessions do. lipsctl's
// `--restore` does not, because its simulator cannot tell an undecodable
// payload from one written on another cluster, which must be refused (exit
// 2, tools/restore_mismatch.cmake). Retention keeps the newest `keep`
// files so one bad write never destroys the only good snapshot.
//
// Thread role: per-resource. A CheckpointDir holds no mutable state (path
// and retention count are fixed at construction), so any number of threads
// may operate on *distinct directories* concurrently — the farm gives each
// seeded run its own directory. Concurrent writers into the SAME directory
// are externally synchronized by the sequence-number discipline instead:
// each run owns its monotone sequence counter, and two runs must never
// share a directory (their retention pruning would delete each other's
// snapshots; the write path itself stays atomic either way thanks to the
// tmp+rename protocol).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "ckpt/write_faults.hpp"
#include "common/thread_annotations.hpp"

namespace lips::ckpt {

class LIPS_EXTERNALLY_SYNCHRONIZED CheckpointDir {
 public:
  /// Creates `path` (and parents) if missing. `keep` >= 2: retaining fewer
  /// than two snapshots would leave no fallback for a corrupt newest file.
  explicit CheckpointDir(std::string path, std::size_t keep = 4);

  /// Atomically write `ckpt-<sequence>.lips`. An injector, when given,
  /// perturbs the encoded bytes before they reach disk (testing only).
  /// Returns the final path. Prunes files beyond the retention count.
  std::string write(const Snapshot& s,
                    SnapshotFaultInjector* faults = nullptr) const;

  /// Newest snapshot that decodes cleanly, or nullopt if none exists.
  /// Files that fail validation are appended to `skipped` (path + reason)
  /// — the caller decides whether silent fallback is acceptable.
  ///
  /// A `restore` step, when given, is called on each snapshot whose framing
  /// and CRC pass, newest first, and its payload must decode too: a
  /// SnapshotError it throws skips that file like a CRC failure, and the
  /// walk stops at the first snapshot it restores. Any other exception ends
  /// the walk and propagates.
  struct Skipped {
    std::string path;
    std::string reason;
  };
  [[nodiscard]] std::optional<Snapshot> load_latest(
      std::vector<Skipped>* skipped = nullptr,
      const std::function<void(const Snapshot&)>& restore = {}) const;

  /// Snapshot file paths, sorted oldest → newest.
  [[nodiscard]] std::vector<std::string> list() const;

  /// Highest sequence number present (decoded from filenames), or nullopt
  /// when the directory holds no snapshots. Resumed runs continue numbering
  /// from here so retention pruning never reuses a name.
  [[nodiscard]] std::optional<std::uint64_t> latest_sequence() const;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::size_t keep_;
};

}  // namespace lips::ckpt
