#include "core/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "core/contracts.hpp"

namespace tc3i {

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {}

void CliParser::add_flag(const std::string& name,
                         const std::string& default_value,
                         const std::string& help) {
  TC3I_EXPECTS(!name.empty());
  TC3I_EXPECTS(!flags_.contains(name));
  flags_[name] = Flag{default_value, help, std::nullopt};
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      help_ = true;
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument '%s'\n%s",
                   arg.c_str(), usage().c_str());
      return false;
    }
    arg = arg.substr(2);
    std::string name, value;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      // A flag at the end of the line or followed by another flag is a
      // bare boolean switch: `--counters --trace-out t.json` works.
      if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0)
        value = "true";
      else
        value = argv[++i];
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag --%s\n%s", name.c_str(),
                   usage().c_str());
      return false;
    }
    it->second.value = value;
  }
  return true;
}

bool CliParser::is_set(const std::string& name) const {
  auto it = flags_.find(name);
  TC3I_EXPECTS(it != flags_.end());
  return it->second.value.has_value();
}

std::string CliParser::get(const std::string& name) const {
  auto it = flags_.find(name);
  TC3I_EXPECTS(it != flags_.end());
  return it->second.value.value_or(it->second.default_value);
}

namespace {

/// A flag value that is not what its getter reads is a usage error, like
/// RunSession's range checks: say which flag and exit 2 before any work.
[[noreturn]] void bad_value(const std::string& name, const char* wanted,
                            const std::string& value) {
  std::fprintf(stderr, "error: --%s needs %s, got '%s'\n", name.c_str(),
               wanted, value.c_str());
  std::exit(2);
}

}  // namespace

std::int64_t CliParser::get_int(const std::string& name) const {
  const std::string v = get(name);
  std::int64_t out = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc() || end != v.data() + v.size())
    bad_value(name, "an integer", v);
  return out;
}

double CliParser::get_double(const std::string& name) const {
  const std::string v = get(name);
  double out = 0.0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc() || end != v.data() + v.size() || !std::isfinite(out))
    bad_value(name, "a finite number", v);
  return out;
}

bool CliParser::get_bool(const std::string& name) const {
  const std::string v = get(name);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  bad_value(name, "true/false, 1/0 or yes/no", v);
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << description_ << "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << " (default: " << flag.default_value << ")\n      "
       << flag.help << '\n';
  }
  return os.str();
}

}  // namespace tc3i
