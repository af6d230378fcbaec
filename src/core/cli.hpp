// Minimal command-line flag parsing for the bench and example binaries.
// Flags are --name=value or --name value; a bare --name (at end of line or
// followed by another flag) reads as the boolean "true". Unknown flags are
// an error so that typos in experiment scripts fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tc3i {

class CliParser {
 public:
  CliParser(std::string program_description);

  /// Registers a flag with a default value and help text.
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// Parses argv. Returns false (after printing usage) on --help, -h or a
  /// usage error; exit_code() then says which.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  /// How a program whose parse() returned false exits: 0 when help was
  /// asked for, 2 on a usage error.
  [[nodiscard]] int exit_code() const { return help_ ? 0 : 2; }

  /// True when the flag was explicitly given on the command line (as
  /// opposed to falling back to its default). Lets callers distinguish
  /// "user asked for --jobs 4" from "defaulted to 4".
  [[nodiscard]] bool is_set(const std::string& name) const;

  [[nodiscard]] std::string get(const std::string& name) const;
  /// The typed getters read the whole value: a decimal integer, a finite
  /// number, or one of true/false, 1/0, yes/no. Any other value prints
  /// "error: --<name> needs ..." and exits 2.
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  [[nodiscard]] std::string usage() const;

 private:
  struct Flag {
    std::string default_value;
    std::string help;
    std::optional<std::string> value;
  };

  std::string description_;
  std::map<std::string, Flag> flags_;
  bool help_ = false;
};

}  // namespace tc3i
