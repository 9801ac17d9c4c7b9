#include "svc/service.hpp"

#include <utility>

#include "ckpt/codec.hpp"
#include "common/error.hpp"
#include "common/spec.hpp"
#include "farm/scenario.hpp"

namespace lips::svc {

namespace {

/// Scenario specs ride inside the OPEN spec as one text value, with ';'
/// standing in for the ',' the outer spec layer owns. Rewrite before
/// handing to parse_scenario_spec.
std::string unescape_scenario(std::string s) {
  for (char& c : s)
    if (c == ';') c = ',';
  return s;
}

std::string one_line(std::string s) {
  for (char& c : s)
    if (c == '\n' || c == '\r') c = ' ';
  return s;
}

}  // namespace

bool Service::handle_line(ConnectionCtx& ctx, const std::string& line,
                          const std::shared_ptr<ReplySink>& sink) {
  ctx.seq += 1;
  const std::uint64_t seq = ctx.seq;
  if (line.size() > kMaxLineBytes) {
    sink->write(Reply::error(err::kLineTooLong,
                             "request exceeds " +
                                 std::to_string(kMaxLineBytes) + " bytes")
                    .render(seq));
    return true;
  }
  if (line.find('\0') != std::string::npos) {
    sink->write(Reply::error(err::kNulByte, "request contains a NUL byte")
                    .render(seq));
    return true;
  }
  const std::size_t sp = line.find(' ');
  const std::string verb = line.substr(0, sp);
  const std::string rest = sp == std::string::npos ? "" : line.substr(sp + 1);
  if (verb.empty()) {
    sink->write(
        Reply::error(err::kBadCommand, "empty command line").render(seq));
    return true;
  }

  if (verb == "OPEN") {
    sink->write(open_session(ctx, rest).render(seq));
    return true;
  }
  if (verb == "QUIT") {
    // Destroying the session drains its queue and joins the worker, so
    // every queued reply is flushed before this OK goes out.
    on_disconnect(ctx);
    sink->write(Reply::ok("bye=1").render(seq));
    return false;
  }

  lips::MutexLock lock(mu_);
  const auto it = sessions_.find(ctx.session);
  if (ctx.session.empty() || it == sessions_.end()) {
    sink->write(
        Reply::error(err::kNoSession, "no session bound; OPEN first")
            .render(seq));
    return true;
  }
  Command cmd;
  cmd.seq = seq;
  cmd.verb = verb;
  cmd.rest = rest;
  cmd.sink = sink;
  if (!it->second->submit(std::move(cmd)))
    sink->write(Reply::busy().render(seq));
  return true;
}

Reply Service::open_session(ConnectionCtx& ctx, const std::string& spec) {
  if (!ctx.session.empty())
    return Reply::error(err::kBadState,
                        "connection already bound to session '" +
                            ctx.session + "'");
  std::string name;
  std::string scenario;
  std::uint64_t seed = 0;
  double restore = 0.0;
  try {
    SpecBinder binder("OPEN spec");
    binder.text("session", &name)
        .text("scenario", &scenario)
        .seed("seed", &seed)
        .number("restore", &restore);
    binder.parse(spec);
    LIPS_REQUIRE(!name.empty(), "OPEN spec: key 'session' is required");
    farm::ScenarioSpec sc = scenario.empty()
                                ? farm::ScenarioSpec{}
                                : farm::parse_scenario_spec(
                                      unescape_scenario(scenario));

    lips::MutexLock lock(mu_);
    if (sessions_.contains(name))
      return Reply::error(err::kSessionExists,
                          "session '" + name + "' already exists");
    SessionOptions so;
    so.queue_capacity = options_.queue_capacity;
    so.snapshot_root = options_.snapshot_root;
    so.restore = restore != 0.0;
    so.metrics = options_.metrics;
    so.tracer = options_.tracer;
    auto session =
        std::make_unique<Session>(name, std::move(sc), seed, std::move(so));
    session->start();
    sessions_.emplace(name, std::move(session));
    ctx.session = name;
    return Reply::ok("session=" + name + ",seed=" + std::to_string(seed));
  } catch (const ckpt::SnapshotError& e) {
    return Reply::error(err::kSnapshot, one_line(e.what()));
  } catch (const PreconditionError& e) {
    return Reply::error(err::kBadSpec, one_line(e.reason()));
  } catch (const std::exception& e) {
    return Reply::error(err::kInternal, one_line(e.what()));
  }
}

void Service::on_disconnect(ConnectionCtx& ctx) {
  if (ctx.session.empty()) return;
  std::unique_ptr<Session> dying;
  {
    lips::MutexLock lock(mu_);
    const auto it = sessions_.find(ctx.session);
    if (it != sessions_.end()) {
      dying = std::move(it->second);
      sessions_.erase(it);
    }
  }
  ctx.session.clear();
  // Destructor drains + joins outside the registry lock.
}

void Service::shutdown() {
  std::map<std::string, std::unique_ptr<Session>> doomed;
  {
    lips::MutexLock lock(mu_);
    doomed.swap(sessions_);
  }
  doomed.clear();  // drains + joins each worker
}

std::size_t Service::session_count() const {
  lips::MutexLock lock(mu_);
  return sessions_.size();
}

}  // namespace lips::svc
