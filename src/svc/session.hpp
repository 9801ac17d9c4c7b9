// One tenant of the lipsd scheduler service.
//
// A Session owns everything one scheduling tenant needs and nothing more:
// a LipsPolicy with its incremental EpochLpContext, a MirrorState fed from
// the wire (it is also the policy's clock: ClusterState::now() reads the
// last STATE's time), a per-tenant CostLedger, and a bounded command queue
// drained by the session's own worker thread. Tenants therefore never
// contend on scheduler state — the only shared sinks are the daemon-wide
// MetricRegistry and Tracer, which are internally synchronized.
//
// Command flow (DESIGN.md §14): connection reader threads parse lines and
// try_push Command records; the queue is bounded, and a full queue is
// answered `BUSY <seq>` by the *reader* (explicit backpressure — the daemon
// never buffers unboundedly behind a slow LP solve). The worker pops
// commands, dispatches to a handler under a tracer span, renders the Reply,
// and writes it through the command's ReplySink.
//
// Restore-on-start: OPEN with restore=1 loads the newest snapshot from the
// session's own checkpoint subdirectory (two tenants never share a
// directory — ckpt/store.hpp retention discipline) and resumes the policy,
// ledger, mirror time, and epoch counter bit-identically (verified in
// tests/test_svc.cpp). A snapshot whose payload does not decode is skipped
// like one whose CRC fails, and the next older one is tried.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "ckpt/store.hpp"
#include "core/lips_policy.hpp"
#include "farm/recipe.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/mirror.hpp"
#include "svc/queue.hpp"
#include "svc/wire.hpp"

namespace lips::svc {

/// Where a worker-produced reply goes. Implementations must be safe to call
/// from the session worker thread while the connection reader is live
/// (socket sinks serialize writes internally; test sinks capture).
class ReplySink {
 public:
  virtual ~ReplySink() = default;
  /// `rendered` is a complete reply (data lines + status line, newline
  /// terminated) — write it atomically so replies never interleave.
  virtual void write(const std::string& rendered) = 0;
};

/// One queued request, as parsed by a connection reader.
struct Command {
  std::uint64_t seq = 0;  ///< connection request ordinal, echoed in replies
  std::string verb;       ///< "STATE", "TICK", "PLAN?", ...
  std::string rest;       ///< everything after the verb (maybe empty)
  std::shared_ptr<ReplySink> sink;
};

struct SessionOptions {
  /// Commands buffered between reader and worker before BUSY.
  std::size_t queue_capacity = 64;
  /// Root for per-session checkpoint subdirectories; empty disables
  /// SNAPSHOT/restore (SNAPSHOT then answers ERR snapshot).
  std::string snapshot_root;
  /// Load the newest snapshot for this session name that decodes before
  /// serving. With none on disk, or none whose CRC passes, the request
  /// throws PreconditionError; when some pass their CRC but no payload
  /// decodes, it throws SnapshotError.
  bool restore = false;
  /// Shared daemon sinks (both optional).
  obs::MetricRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

class Session {
 public:
  /// Builds the deterministic world for (spec, seed) via farm/recipe.hpp
  /// and hosts a LipsPolicy over it. Throws PreconditionError on an invalid
  /// spec or an impossible restore request.
  Session(std::string name, farm::ScenarioSpec spec, std::uint64_t seed,
          SessionOptions options);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Spawn the worker thread. Idempotent-free by contract: call once.
  void start();
  /// Close the queue, drain remaining commands, join the worker. Safe to
  /// call twice; the destructor calls it as a backstop.
  void stop();

  /// Reader-side enqueue. False = queue full (caller answers BUSY) or
  /// session stopping (caller drops the command). Updates the shared
  /// lips_svc_queue_depth / lips_svc_rejected_total instruments.
  [[nodiscard]] bool submit(Command cmd);

  /// Dispatch one command synchronously. Worker-thread only once start()
  /// has run; tests may call it directly on an unstarted session — that is
  /// the same single-consumer discipline, just with the test as the worker.
  [[nodiscard]] Reply handle(const std::string& verb, const std::string& rest);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }
  [[nodiscard]] const core::LipsPolicy& policy() const { return policy_; }
  [[nodiscard]] const obs::CostLedger& ledger() const { return ledger_; }
  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }

 private:
  [[nodiscard]] Reply handle_state(const std::string& rest);
  [[nodiscard]] Reply handle_job(const std::string& rest);
  [[nodiscard]] Reply handle_machine(const std::string& rest);
  [[nodiscard]] Reply handle_store(const std::string& rest);
  [[nodiscard]] Reply handle_tick();
  [[nodiscard]] Reply handle_slot(const std::string& rest);
  [[nodiscard]] Reply handle_task(const std::string& rest);
  [[nodiscard]] Reply handle_moves();
  [[nodiscard]] Reply handle_plan();
  [[nodiscard]] Reply handle_ledger();
  [[nodiscard]] Reply handle_metrics();
  [[nodiscard]] Reply handle_snapshot();
  /// Snapshot payload (DESIGN.md §11): version, owner name and seed
  /// (a mismatch of either is a PreconditionError), the mirror's time, epoch
  /// count, ledger, policy.
  template <class Ar, class Self>
  static void payload_fields(Ar& ar, Self& self);
  void restore_from_snapshot();
  void worker_loop();

  const std::string name_;
  const farm::ScenarioSpec spec_;
  const std::uint64_t seed_;
  const SessionOptions options_;

  // World + policy, touched only by the worker (single-consumer queue).
  farm::RunInputs inputs_;
  MirrorState mirror_ LIPS_PER_THREAD;
  core::LipsPolicy policy_ LIPS_PER_THREAD;
  obs::CostLedger ledger_ LIPS_PER_THREAD;
  std::uint64_t epochs_ = 0;         ///< TICKs processed (ledger epoch)
  std::uint64_t snapshot_seq_ = 0;   ///< next checkpoint sequence number
  std::optional<ckpt::CheckpointDir> ckpt_dir_;

  BoundedQueue<Command> queue_;
  std::thread worker_;
  bool started_ = false;

  // Shared-registry handles, resolved once at construction (null when the
  // daemon runs without metrics).
  obs::Counter* commands_total_ = nullptr;
  obs::Counter* rejected_total_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
};

}  // namespace lips::svc
