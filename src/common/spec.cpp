#include "common/spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>

#include "common/error.hpp"

namespace lips {

SpecBinder& SpecBinder::add(
    const std::string& key,
    std::function<void(const std::string&, double)> apply) {
  for (const Field& f : fields_)
    LIPS_REQUIRE(f.key != key, domain_ + " key bound twice: " + key);
  fields_.push_back(Field{key, std::move(apply), nullptr});
  return *this;
}

SpecBinder& SpecBinder::number(const std::string& key, double* out) {
  return add(key, [this, key, out](const std::string& entry, double v) {
    LIPS_REQUIRE(std::isfinite(v),
                 domain_ + " value must be finite: " + entry);
    *out = v;
  });
}

SpecBinder& SpecBinder::probability(const std::string& key, double* out) {
  return add(key, [this, key, out](const std::string&, double v) {
    LIPS_REQUIRE(v >= 0.0 && v <= 1.0,
                 domain_ + " key '" + key + "' must be in [0, 1]");
    *out = v;
  });
}

SpecBinder& SpecBinder::count(const std::string& key, std::size_t* out) {
  return add(key, [this, key, out](const std::string& entry, double v) {
    LIPS_REQUIRE(v >= 0.0 && std::isfinite(v),
                 domain_ + " key '" + key + "' must be >= 0");
    LIPS_REQUIRE(v == std::floor(v),
                 domain_ + " key '" + key + "' must be an integer: " + entry);
    // A double >= 2^64 is finite and integral, but casting it to a 64-bit
    // type is undefined behaviour — reject before the cast.
    LIPS_REQUIRE(v < 0x1p64,
                 domain_ + " key '" + key + "' overflows 64 bits: " + entry);
    *out = static_cast<std::size_t>(v);
  });
}

SpecBinder& SpecBinder::text(const std::string& key, std::string* out) {
  for (const Field& f : fields_)
    LIPS_REQUIRE(f.key != key, domain_ + " key bound twice: " + key);
  Field field;
  field.key = key;
  field.apply_text = [this, key, out](const std::string& value) {
    LIPS_REQUIRE(!value.empty(),
                 domain_ + " key '" + key + "' needs a non-empty value");
    *out = value;
  };
  fields_.push_back(std::move(field));
  return *this;
}

SpecBinder& SpecBinder::seed(const std::string& key, std::uint64_t* out) {
  return add(key, [this, key, out](const std::string& entry, double v) {
    LIPS_REQUIRE(v >= 0.0 && std::isfinite(v),
                 domain_ + " key '" + key + "' must be >= 0");
    // Same 2^64 cast hazard as count(); seeds also silently truncate any
    // fractional part otherwise, so require integral input too.
    LIPS_REQUIRE(v == std::floor(v),
                 domain_ + " key '" + key + "' must be an integer: " + entry);
    LIPS_REQUIRE(v < 0x1p64,
                 domain_ + " key '" + key + "' overflows 64 bits: " + entry);
    *out = static_cast<std::uint64_t>(v);
  });
}

std::string SpecBinder::known_keys() const {
  std::string keys;
  for (const Field& f : fields_) {
    if (!keys.empty()) keys += ", ";
    keys += f.key;
  }
  return keys;
}

bool SpecBinder::binds(const std::string& key) const {
  return std::any_of(fields_.begin(), fields_.end(),
                     [&](const Field& f) { return f.key == key; });
}

void SpecBinder::apply(const std::string& key, const std::string& value) const {
  LIPS_REQUIRE(value.find(',') == std::string::npos,
               domain_ + " value may not contain ',': " + key + "=" + value);
  parse(key + "=" + value);
}

void SpecBinder::parse(const std::string& spec) const {
  std::stringstream entries(spec);
  std::string entry;
  std::set<std::string> seen;
  while (std::getline(entries, entry, ',')) {
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    LIPS_REQUIRE(eq != std::string::npos,
                 domain_ + " entry must be key=value: " + entry);
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    LIPS_REQUIRE(seen.insert(key).second,
                 domain_ + " key given twice: " + key);
    const Field* field = nullptr;
    for (const Field& f : fields_) {
      if (f.key == key) {
        field = &f;
        break;
      }
    }
    LIPS_REQUIRE(field != nullptr, "unknown " + domain_ + " key: " + key +
                                       " (known: " + known_keys() + ")");
    if (field->apply_text) {
      field->apply_text(value);
      continue;
    }
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    LIPS_REQUIRE(end != nullptr && *end == '\0' && !value.empty(),
                 domain_ + " value is not a number: " + entry);
    field->apply(entry, v);
  }
}

}  // namespace lips
