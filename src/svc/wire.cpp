#include "svc/wire.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"
#include "common/spec.hpp"

namespace lips::svc {

std::string hex_f64(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

double parse_f64(const std::string& s) {
  LIPS_REQUIRE(!s.empty(), "wire: empty float field");
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  LIPS_REQUIRE(end != nullptr && *end == '\0',
               "wire: not a float: " + s);
  return v;
}

std::uint64_t parse_u64(const std::string& s) {
  LIPS_REQUIRE(!s.empty(), "wire: empty integer field");
  for (const char c : s)
    LIPS_REQUIRE(c >= '0' && c <= '9', "wire: not an integer: " + s);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  LIPS_REQUIRE(end != nullptr && *end == '\0',
               "wire: not an integer: " + s);
  LIPS_REQUIRE(errno != ERANGE, "wire: integer out of range: " + s);
  return static_cast<std::uint64_t>(v);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= s.size()) {
    const std::size_t end = s.find(sep, begin);
    const std::size_t stop = end == std::string::npos ? s.size() : end;
    if (stop > begin) out.push_back(s.substr(begin, stop - begin));
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> parse_kv(
    const std::string& spec) {
  std::vector<std::pair<std::string, std::string>> kv;
  for (const std::string& entry : split(spec, ',')) {
    const std::size_t eq = entry.find('=');
    LIPS_REQUIRE(eq != std::string::npos,
                 "wire: entry must be key=value: " + entry);
    kv.emplace_back(entry.substr(0, eq), entry.substr(eq + 1));
  }
  return kv;
}

std::optional<std::string> kv_get(
    const std::vector<std::pair<std::string, std::string>>& kv,
    const std::string& key) {
  for (const auto& [k, v] : kv)
    if (k == key) return v;
  return std::nullopt;
}

Reply Reply::ok(std::string spec) {
  Reply r;
  r.status = Status::Ok;
  r.detail = std::move(spec);
  return r;
}

Reply Reply::error(std::string code, std::string detail) {
  Reply r;
  r.status = Status::Err;
  r.code = std::move(code);
  r.detail = std::move(detail);
  return r;
}

Reply Reply::busy() {
  Reply r;
  r.status = Status::Busy;
  return r;
}

std::string Reply::render(std::uint64_t seq) const {
  std::string out;
  for (const std::string& line : data) {
    out += line;
    out += '\n';
  }
  switch (status) {
    case Status::Ok:
      out += "OK " + std::to_string(seq);
      if (!detail.empty()) out += ' ' + detail;
      break;
    case Status::Busy:
      out += "BUSY " + std::to_string(seq);
      break;
    case Status::Err:
      out += "ERR " + std::to_string(seq) + ' ' + code + ' ' + detail;
      break;
  }
  out += '\n';
  return out;
}

// --- state mirror codec -----------------------------------------------------

namespace {

std::string join_u64(const std::vector<std::size_t>& xs) {
  std::string out;
  for (const std::size_t x : xs) {
    if (!out.empty()) out += ':';
    out += std::to_string(x);
  }
  return out;
}

std::vector<std::size_t> parse_u64_list(const std::string& value) {
  std::vector<std::size_t> out;
  for (const std::string& tok : split(value, ':'))
    out.push_back(static_cast<std::size_t>(parse_u64(tok)));
  return out;
}

}  // namespace

std::string encode_state(const WireState& ws) {
  std::string spec = "now=" + hex_f64(ws.now);
  if (!ws.pending.empty()) spec += ",pending=" + join_u64(ws.pending);
  if (!ws.machines_down.empty())
    spec += ",down=" + join_u64(ws.machines_down);
  if (!ws.stores_down.empty()) spec += ",sdown=" + join_u64(ws.stores_down);
  if (!ws.throughput.empty()) {
    spec += ",tp=";
    bool first = true;
    for (const auto& [m, f] : ws.throughput) {
      if (!first) spec += ';';
      first = false;
      spec += std::to_string(m) + ':' + hex_f64(f);
    }
  }
  if (!ws.fractions.empty()) {
    spec += ",frac=";
    bool first = true;
    for (const WireFraction& f : ws.fractions) {
      if (!first) spec += ';';
      first = false;
      spec += std::to_string(f.data) + ':' + std::to_string(f.store) + ':' +
              hex_f64(f.fraction);
    }
  }
  return spec;
}

WireState decode_state(const std::string& spec) {
  WireState ws;
  double now = 0.0;
  std::string pending;
  std::string down;
  std::string sdown;
  std::string tp;
  std::string frac;
  SpecBinder binder("state spec");
  binder.number("now", &now)
      .text("pending", &pending)
      .text("down", &down)
      .text("sdown", &sdown)
      .text("tp", &tp)
      .text("frac", &frac);
  binder.parse(spec);
  ws.now = now;
  ws.pending = parse_u64_list(pending);
  ws.machines_down = parse_u64_list(down);
  ws.stores_down = parse_u64_list(sdown);
  for (const std::string& rec : split(tp, ';')) {
    const std::vector<std::string> f = split(rec, ':');
    LIPS_REQUIRE(f.size() == 2, "state spec: tp record needs m:factor: " + rec);
    ws.throughput.emplace_back(static_cast<std::size_t>(parse_u64(f[0])),
                               parse_f64(f[1]));
  }
  for (const std::string& rec : split(frac, ';')) {
    const std::vector<std::string> f = split(rec, ':');
    LIPS_REQUIRE(f.size() == 3,
                 "state spec: frac record needs d:s:fraction: " + rec);
    WireFraction wf;
    wf.data = static_cast<std::size_t>(parse_u64(f[0]));
    wf.store = static_cast<std::size_t>(parse_u64(f[1]));
    wf.fraction = parse_f64(f[2]);
    ws.fractions.push_back(wf);
  }
  return ws;
}

std::string encode_tasks(const std::vector<WireTask>& tasks) {
  std::string out;
  for (const WireTask& t : tasks) {
    if (!out.empty()) out += ';';
    out += std::to_string(t.id) + ':' + std::to_string(t.job) + ':' +
           std::to_string(t.index_in_job) + ':' + hex_f64(t.input_mb) + ':' +
           hex_f64(t.cpu_ecu_s) + ':' +
           (t.data.has_value() ? std::to_string(*t.data) : std::string("-"));
  }
  return out;
}

std::vector<WireTask> decode_tasks(const std::string& value) {
  std::vector<WireTask> out;
  for (const std::string& rec : split(value, ';')) {
    const std::vector<std::string> f = split(rec, ':');
    LIPS_REQUIRE(f.size() == 6,
                 "job spec: task record needs id:job:idx:input:cpu:data: " +
                     rec);
    WireTask t;
    t.id = static_cast<std::size_t>(parse_u64(f[0]));
    t.job = static_cast<std::size_t>(parse_u64(f[1]));
    t.index_in_job = static_cast<std::size_t>(parse_u64(f[2]));
    t.input_mb = parse_f64(f[3]);
    t.cpu_ecu_s = parse_f64(f[4]);
    if (f[5] != "-") t.data = static_cast<std::size_t>(parse_u64(f[5]));
    out.push_back(t);
  }
  return out;
}

}  // namespace lips::svc
