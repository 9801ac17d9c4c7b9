#include "ckpt/store.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"

namespace lips::ckpt {

namespace fs = std::filesystem;

namespace {

constexpr char kPrefix[] = "ckpt-";
constexpr char kSuffix[] = ".lips";

std::string file_name(std::uint64_t sequence) {
  // Zero-padded so lexicographic order == numeric order.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%010llu.lips",
                static_cast<unsigned long long>(sequence));
  return buf;
}

/// Sequence number from a snapshot filename, or nullopt for other files.
std::optional<std::uint64_t> sequence_of(const std::string& name) {
  const std::size_t prefix_len = sizeof(kPrefix) - 1;
  const std::size_t suffix_len = sizeof(kSuffix) - 1;
  if (name.size() <= prefix_len + suffix_len) return std::nullopt;
  if (name.compare(0, prefix_len, kPrefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0)
    return std::nullopt;
  std::uint64_t seq = 0;
  for (std::size_t i = prefix_len; i < name.size() - suffix_len; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return seq;
}

}  // namespace

CheckpointDir::CheckpointDir(std::string path, std::size_t keep)
    : path_(std::move(path)), keep_(keep) {
  LIPS_REQUIRE(!path_.empty(), "checkpoint directory path must be non-empty");
  LIPS_REQUIRE(keep_ >= 2,
               "checkpoint retention must keep >= 2 snapshots (one bad write "
               "would otherwise destroy the only good one)");
  std::error_code ec;
  fs::create_directories(path_, ec);
  LIPS_REQUIRE(!ec, "cannot create checkpoint directory " + path_ + ": " +
                        ec.message());
}

std::string CheckpointDir::write(const Snapshot& s,
                                 SnapshotFaultInjector* faults) const {
  std::vector<std::uint8_t> bytes = encode_snapshot(s);
  if (faults != nullptr) faults->apply(bytes);

  const std::string final_path = path_ + "/" + file_name(s.meta.sequence);
  const std::string tmp_path =
      path_ + "/." + file_name(s.meta.sequence) + ".tmp";

  // fopen/fsync rather than ofstream: the crash-consistency argument needs
  // the data durable *before* the rename publishes the name.
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  LIPS_REQUIRE(f != nullptr, "cannot open checkpoint temp file " + tmp_path);
  const std::size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool synced = ::fsync(::fileno(f)) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed || !synced || !closed) {
    std::error_code ec;
    fs::remove(tmp_path, ec);
    LIPS_REQUIRE(false, "short write to checkpoint temp file " + tmp_path);
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  LIPS_REQUIRE(!ec, "cannot publish checkpoint " + final_path + ": " +
                        ec.message());

  // Retention: drop oldest beyond keep_. Pruning failure is non-fatal (the
  // next write retries); publishing already succeeded.
  std::vector<std::string> files = list();
  while (files.size() > keep_) {
    fs::remove(files.front(), ec);
    files.erase(files.begin());
  }
  return final_path;
}

std::vector<std::string> CheckpointDir::list() const {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (fs::directory_iterator it(path_, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (const auto seq = sequence_of(name))
      found.emplace_back(*seq, it->path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [seq, p] : found) paths.push_back(std::move(p));
  return paths;
}

std::optional<std::uint64_t> CheckpointDir::latest_sequence() const {
  const std::vector<std::string> files = list();
  if (files.empty()) return std::nullopt;
  return sequence_of(fs::path(files.back()).filename().string());
}

std::optional<Snapshot> CheckpointDir::load_latest(
    std::vector<Skipped>* skipped,
    const std::function<void(const Snapshot&)>& restore) const {
  std::vector<std::string> files = list();
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    std::ifstream in(*it, std::ios::binary);
    if (!in.good()) {
      if (skipped != nullptr)
        skipped->push_back({*it, "cannot open file"});
      continue;
    }
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    try {
      Snapshot snap = decode_snapshot(bytes);
      if (restore) restore(snap);
      return snap;
    } catch (const SnapshotError& e) {
      if (skipped != nullptr) skipped->push_back({*it, e.what()});
    }
  }
  return std::nullopt;
}

}  // namespace lips::ckpt
