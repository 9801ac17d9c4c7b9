// Declarative parser for compact command-line key=value specs.
//
// Three subsystems accept "k1=v1,k2=v2" specs on the lipsctl command line —
// cluster fault storms (`--faults`), solver fault injection
// (`--solver-faults`), and checkpointing (`--checkpoint-faults`) — and each
// used to hand-roll the same getline/strtod/duplicate-set loop with subtly
// different error text. SpecBinder centralizes that loop: a caller binds each
// key to a destination (with its range contract) once, and parse() applies a
// spec with uniform errors for malformed entries, non-numeric values,
// duplicate keys, out-of-range values, and unknown keys (which list the
// accepted key set, since a typo on the command line is the common case).
//
// All errors are PreconditionError, matching the LIPS_REQUIRE convention.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace lips {

class SpecBinder {
 public:
  /// `domain` prefixes every error message, e.g. "fault spec".
  explicit SpecBinder(std::string domain) : domain_(std::move(domain)) {}

  /// Any finite double. Accepts every strtod form, including C99 hexfloat
  /// ("0x1.8p+3") — the svc wire protocol round-trips doubles that way.
  SpecBinder& number(const std::string& key, double* out);
  /// Double in [0, 1] (probabilities; range-checked at parse time).
  SpecBinder& probability(const std::string& key, double* out);
  /// Non-negative integral count.
  SpecBinder& count(const std::string& key, std::size_t* out);
  /// Non-negative 64-bit seed.
  SpecBinder& seed(const std::string& key, std::uint64_t* out);
  /// Verbatim string value (no numeric conversion). The value may not be
  /// empty and may not contain ',' (the entry separator) by construction.
  /// Used for names and sub-list payloads: scenario workload/scheduler
  /// names, lipsd session ids, and the svc wire protocol's ':'-separated
  /// list fields all ride this binder.
  SpecBinder& text(const std::string& key, std::string* out);

  /// Parse "k1=v1,k2=v2" and write each bound destination. Empty entries
  /// (",,") are skipped; an empty spec is a no-op. Throws PreconditionError
  /// on: an entry without '=', a numeric-bound value that is not a number,
  /// a key bound range being violated, a key given twice, or an unknown key.
  void parse(const std::string& spec) const;

  /// True when `key` is bound.
  [[nodiscard]] bool binds(const std::string& key) const;
  /// Parse the one entry "key=value": how command-line flags such as
  /// lipsctl's `--nodes 8` reuse the spec number rules. A value containing
  /// ',' is refused, so one flag can never set two keys.
  void apply(const std::string& key, const std::string& value) const;

 private:
  struct Field {
    std::string key;
    /// Numeric kinds get the strtod value; exactly one of apply/apply_text
    /// is set, matching how the field was bound.
    std::function<void(const std::string& entry, double value)> apply;
    std::function<void(const std::string& value)> apply_text;
  };
  SpecBinder& add(const std::string& key,
                  std::function<void(const std::string&, double)> apply);
  [[nodiscard]] std::string known_keys() const;

  std::string domain_;
  std::vector<Field> fields_;
};

}  // namespace lips
