#include "svc/session.hpp"

#include <utility>

#include "common/build_info.hpp"
#include "common/error.hpp"
#include "common/spec.hpp"

namespace lips::svc {

namespace {

/// Our slice of the snapshot payload rides in front of the ledger's and the
/// policy's own save_state bytes; bump when the session schema changes.
constexpr std::uint64_t kSessionPayloadVersion = 4;

/// Error details travel on one status line; fold any embedded newlines.
std::string one_line(std::string s) {
  for (char& c : s)
    if (c == '\n' || c == '\r') c = ' ';
  return s;
}

/// Tracer names must be string literals (obs/trace.hpp stores the pointer).
const char* span_name(const std::string& verb) {
  if (verb == "STATE") return "svc_state";
  if (verb == "JOB") return "svc_job";
  if (verb == "MACHINE") return "svc_machine";
  if (verb == "STORE") return "svc_store";
  if (verb == "TICK") return "svc_tick";
  if (verb == "SLOT") return "svc_slot";
  if (verb == "TASK") return "svc_task";
  if (verb == "MOVES?") return "svc_moves";
  if (verb == "PLAN?") return "svc_plan";
  if (verb == "LEDGER?") return "svc_ledger";
  if (verb == "METRICS?") return "svc_metrics";
  if (verb == "SNAPSHOT") return "svc_snapshot";
  return "svc_other";
}

}  // namespace

Session::Session(std::string name, farm::ScenarioSpec spec, std::uint64_t seed,
                 SessionOptions options)
    : name_(std::move(name)),
      spec_(std::move(spec)),
      seed_(seed),
      options_(std::move(options)),
      inputs_(farm::make_run_inputs(spec_, seed_)),
      mirror_(inputs_.cluster, inputs_.workload),
      policy_(farm::make_lips_options(spec_, farm::SchedulerSpec{})),
      queue_(options_.queue_capacity) {
  LIPS_REQUIRE(!name_.empty(), "svc: session name must be non-empty");
  policy_.set_observer(
      obs::Observer{options_.metrics, options_.tracer, &ledger_});
  if (options_.metrics != nullptr) {
    commands_total_ = &options_.metrics->counter(
        "lips_svc_commands_total", {{"session", name_}});
    rejected_total_ = &options_.metrics->counter(
        "lips_svc_rejected_total", {{"session", name_}});
    queue_depth_gauge_ = &options_.metrics->gauge("lips_svc_queue_depth",
                                                  {{"session", name_}});
  }
  if (!options_.snapshot_root.empty())
    ckpt_dir_.emplace(options_.snapshot_root + "/" + name_);
  if (options_.restore) {
    LIPS_REQUIRE(ckpt_dir_.has_value(),
                 "svc: restore requested with no snapshot root");
    restore_from_snapshot();
  } else if (ckpt_dir_.has_value()) {
    // Resumed numbering even without restore: never reuse a sequence.
    snapshot_seq_ = ckpt_dir_->latest_sequence().value_or(0);
  }
}

Session::~Session() { stop(); }

void Session::start() {
  LIPS_REQUIRE(!started_, "svc: session already started");
  started_ = true;
  worker_ = std::thread([this] { worker_loop(); });
}

void Session::stop() {
  queue_.close();
  if (worker_.joinable()) worker_.join();
}

bool Session::submit(Command cmd) {
  if (!queue_.try_push(std::move(cmd))) {
    if (rejected_total_ != nullptr) rejected_total_->inc();
    return false;
  }
  if (queue_depth_gauge_ != nullptr)
    queue_depth_gauge_->set(static_cast<double>(queue_.depth()));
  return true;
}

void Session::worker_loop() {
  while (std::optional<Command> cmd = queue_.pop()) {
    if (queue_depth_gauge_ != nullptr)
      queue_depth_gauge_->set(static_cast<double>(queue_.depth()));
    const Reply reply = handle(cmd->verb, cmd->rest);
    if (cmd->sink != nullptr) cmd->sink->write(reply.render(cmd->seq));
  }
}

Reply Session::handle(const std::string& verb, const std::string& rest) {
  if (commands_total_ != nullptr) commands_total_->inc();
  obs::Tracer* tracer = options_.tracer;
  const char* span = span_name(verb);
  if (tracer != nullptr) tracer->begin(span, "svc");
  Reply reply;
  try {
    if (verb == "STATE") {
      reply = handle_state(rest);
    } else if (verb == "JOB") {
      reply = handle_job(rest);
    } else if (verb == "MACHINE") {
      reply = handle_machine(rest);
    } else if (verb == "STORE") {
      reply = handle_store(rest);
    } else if (verb == "TICK") {
      reply = handle_tick();
    } else if (verb == "SLOT") {
      reply = handle_slot(rest);
    } else if (verb == "TASK") {
      reply = handle_task(rest);
    } else if (verb == "MOVES?") {
      reply = handle_moves();
    } else if (verb == "PLAN?") {
      reply = handle_plan();
    } else if (verb == "LEDGER?") {
      reply = handle_ledger();
    } else if (verb == "METRICS?") {
      reply = handle_metrics();
    } else if (verb == "SNAPSHOT") {
      reply = handle_snapshot();
    } else {
      reply = Reply::error(err::kBadCommand, "unknown command: " + verb);
    }
  } catch (const PreconditionError& e) {
    reply = Reply::error(err::kBadSpec, one_line(e.reason()));
  } catch (const std::exception& e) {
    reply = Reply::error(err::kInternal, one_line(e.what()));
  }
  if (tracer != nullptr) tracer->end(span, "svc");
  return reply;
}

Reply Session::handle_state(const std::string& rest) {
  // The mirror's now() is the policy's only time source: applying the
  // STATE's time here is what replaces the simulator clock end to end.
  mirror_.apply(decode_state(rest));
  return Reply::ok();
}

Reply Session::handle_job(const std::string& rest) {
  std::size_t job = 0;
  std::string tasks;
  SpecBinder binder("JOB spec");
  binder.count("job", &job).text("tasks", &tasks);
  binder.parse(rest);
  LIPS_REQUIRE(job < inputs_.workload.job_count(),
               "JOB spec: job id out of range");
  mirror_.add_tasks(decode_tasks(tasks));
  policy_.on_job_arrival(JobId{job}, mirror_);
  return Reply::ok();
}

Reply Session::handle_machine(const std::string& rest) {
  const std::size_t sp = rest.find(' ');
  const std::string event = rest.substr(0, sp);
  const std::string spec = sp == std::string::npos ? "" : rest.substr(sp + 1);
  std::size_t m = inputs_.cluster.machine_count();
  double at = 0.0;
  SpecBinder binder("MACHINE spec");
  binder.count("m", &m).number("at", &at);
  binder.parse(spec);
  LIPS_REQUIRE(m < inputs_.cluster.machine_count(),
               "MACHINE spec: machine id out of range (key m required)");
  if (event == "down") {
    policy_.on_machine_lost(MachineId{m}, mirror_);
  } else if (event == "up") {
    policy_.on_machine_restored(MachineId{m}, mirror_);
  } else if (event == "warn") {
    policy_.on_spot_warning(MachineId{m}, at, mirror_);
  } else {
    return Reply::error(err::kBadCommand,
                        "MACHINE event must be up|down|warn: " + event);
  }
  return Reply::ok();
}

Reply Session::handle_store(const std::string& rest) {
  const std::size_t sp = rest.find(' ');
  const std::string event = rest.substr(0, sp);
  const std::string spec = sp == std::string::npos ? "" : rest.substr(sp + 1);
  std::size_t s = inputs_.cluster.store_count();
  SpecBinder binder("STORE spec");
  binder.count("s", &s);
  binder.parse(spec);
  LIPS_REQUIRE(s < inputs_.cluster.store_count(),
               "STORE spec: store id out of range (key s required)");
  if (event != "down")
    return Reply::error(err::kBadCommand,
                        "STORE event must be down: " + event);
  policy_.on_store_lost(StoreId{s}, mirror_);
  return Reply::ok();
}

Reply Session::handle_tick() {
  epochs_ += 1;
  // Same discipline as the simulator's on_epoch_tick: posts between
  // consecutive ticks land on this epoch's ledger rows, so the FakeNodeCarry
  // fold matches the in-process run cell for cell.
  ledger_.set_current_epoch(epochs_);
  policy_.on_epoch(mirror_);
  return Reply::ok("epoch=" + std::to_string(epochs_));
}

Reply Session::handle_slot(const std::string& rest) {
  std::size_t m = inputs_.cluster.machine_count();
  SpecBinder binder("SLOT spec");
  binder.count("m", &m);
  binder.parse(rest);
  LIPS_REQUIRE(m < inputs_.cluster.machine_count(),
               "SLOT spec: machine id out of range (key m required)");
  const std::optional<sched::LaunchDecision> d =
      policy_.on_slot_available(MachineId{m}, mirror_);
  if (!d.has_value()) return Reply::ok("idle=1");
  std::string spec = "task=" + std::to_string(d->task);
  if (d->read_from.has_value())
    spec += ",store=" + std::to_string(d->read_from->value());
  return Reply::ok(spec);
}

Reply Session::handle_task(const std::string& rest) {
  std::size_t id = 0;
  std::size_t m = inputs_.cluster.machine_count();
  SpecBinder binder("TASK spec");
  binder.count("id", &id).count("m", &m);
  binder.parse(rest);
  LIPS_REQUIRE(m < inputs_.cluster.machine_count(),
               "TASK spec: machine id out of range (key m required)");
  policy_.on_task_complete(id, MachineId{m}, mirror_);
  return Reply::ok();
}

Reply Session::handle_moves() {
  Reply r = Reply::ok();
  const std::vector<sched::DataMove> moves = policy_.take_data_moves();
  for (const sched::DataMove& mv : moves) {
    r.data.push_back("MOVE data=" + std::to_string(mv.data.value()) +
                     ",from=" + std::to_string(mv.from.value()) +
                     ",to=" + std::to_string(mv.to.value()) +
                     ",frac=" + hex_f64(mv.fraction));
  }
  r.detail = "count=" + std::to_string(moves.size());
  return r;
}

Reply Session::handle_plan() {
  std::string spec = "epochs=" + std::to_string(epochs_);
  spec += ",lp_solves=" + std::to_string(policy_.lp_solves());
  spec += ",lp_failures=" + std::to_string(policy_.lp_failures());
  spec += ",degradations=" + std::to_string(policy_.total_degradations());
  spec += ",planned=" + hex_f64(policy_.planned_cost_mc().raw());
  spec += ",carry=" + hex_f64(policy_.fake_node_carry_mc().raw());
  return Reply::ok(spec);
}

Reply Session::handle_ledger() {
  Reply r = Reply::ok();
  for (std::size_t m = 0; m < obs::kMeterCount; ++m) {
    const auto meter = static_cast<obs::CostMeter>(m);
    r.data.push_back(
        "LEDGER meter=" + std::string(obs::to_string(meter)) +
        ",total=" + hex_f64(ledger_.meter_total(meter).raw()));
  }
  r.detail = "posts=" + std::to_string(ledger_.posts()) +
             ",epoch=" + std::to_string(ledger_.current_epoch());
  return r;
}

Reply Session::handle_metrics() {
  Reply r = Reply::ok();
  std::size_t series = 0;
  if (options_.metrics != nullptr) {
    for (const obs::MetricRegistry::Sample& s : options_.metrics->snapshot()) {
      std::string line = "METRIC " + s.name;
      for (const auto& [k, v] : s.labels) line += " " + k + "=" + v;
      if (s.kind == obs::MetricRegistry::Kind::Histogram) {
        line += " sum=" + hex_f64(s.sum) +
                " count=" + std::to_string(s.count);
      } else {
        line += " value=" + hex_f64(s.value);
      }
      r.data.push_back(std::move(line));
      ++series;
    }
  }
  r.detail = "series=" + std::to_string(series);
  return r;
}

Reply Session::handle_snapshot() {
  if (!ckpt_dir_.has_value())
    return Reply::error(err::kSnapshot,
                        "snapshots disabled (no --snapshot-dir)");
  ckpt::Writer w;
  payload_fields(w, std::as_const(*this));

  ckpt::Snapshot snap;
  const BuildInfo& build = build_info();
  snap.meta.git_sha = build.git_sha;
  snap.meta.compiler = build.compiler;
  snap.meta.build_type = build.build_type;
  snap.meta.label = "svc:" + name_;
  snap.meta.sim_time_s = mirror_.now();
  snap.meta.epoch = epochs_;
  snap.meta.sequence = ++snapshot_seq_;
  snap.payload = w.take();
  try {
    const std::string path = ckpt_dir_->write(snap);
    return Reply::ok("seq=" + std::to_string(snap.meta.sequence) +
                     ",path=" + path);
  } catch (const std::exception& e) {
    return Reply::error(err::kSnapshot, one_line(e.what()));
  }
}

void Session::restore_from_snapshot() {
  std::optional<std::string> undecodable;  // the newest payload failure
  const auto restore = [&](const ckpt::Snapshot& snap) {
    // Each attempt starts from a fresh policy and ledger, so a payload that
    // fails halfway leaves nothing behind for an older one.
    policy_ = core::LipsPolicy(farm::make_lips_options(spec_, {}));
    ledger_ = obs::CostLedger{};
    policy_.set_observer(
        obs::Observer{options_.metrics, options_.tracer, &ledger_});
    try {
      ckpt::Reader r(snap.payload);
      payload_fields(r, *this);
      if (!r.at_end())
        throw ckpt::SnapshotError("snapshot payload has trailing bytes");
    } catch (const ckpt::SnapshotError& e) {
      if (!undecodable) undecodable = e.what();
      throw;
    }
  };
  const std::optional<ckpt::Snapshot> snap =
      ckpt_dir_->load_latest(nullptr, restore);
  if (!snap.has_value() && undecodable.has_value())
    throw ckpt::SnapshotError(*undecodable);
  LIPS_REQUIRE(snap.has_value(),
               "svc: restore requested but no usable snapshot under " +
                   ckpt_dir_->path());
  snapshot_seq_ = ckpt_dir_->latest_sequence().value_or(0);
}

template <class Ar, class Self>
void Session::payload_fields(Ar& ar, Self& self) {
  ar(ckpt::guard(kSessionPayloadVersion, "session payload version"),
     ckpt::guard(self.name_,
                 [](const std::string& got) {
                   throw PreconditionError(
                       "svc: snapshot belongs to session '" + got + "'");
                 }),
     ckpt::guard(self.seed_,
                 [](std::uint64_t) {
                   throw PreconditionError(
                       "svc: snapshot was written with a different seed");
                 }),
     ckpt::via(self.mirror_, &MirrorState::now, &MirrorState::set_now),
     self.epochs_, ckpt::state(self.ledger_), ckpt::state(self.policy_));
}

}  // namespace lips::svc
