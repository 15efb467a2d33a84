#include "common/flags.h"

#include <cerrno>
#include <climits>
#include <cstdlib>

namespace dehealth {

FlagParser::FlagParser(int argc, char** argv, int first,
                       std::set<std::string> boolean_flags) {
  for (int i = first; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) continue;
    const std::string name = token.substr(2);
    if (boolean_flags.count(name) > 0) {  // boolean: no value
      flags_.insert(name);
      continue;
    }
    if (i + 1 < argc) values_[name] = argv[++i];
  }
}

std::string FlagParser::Get(const std::string& key,
                            const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

StatusOr<int> FlagParser::GetInt(const std::string& key, int fallback) const {
  const std::string v = Get(key);
  if (v.empty()) return fallback;
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno != 0 || value < INT_MIN ||
      value > INT_MAX)
    return Status::InvalidArgument("--" + key + " expects an integer, got '" +
                                   v + "'");
  return static_cast<int>(value);
}

StatusOr<double> FlagParser::GetDouble(const std::string& key,
                                       double fallback) const {
  const std::string v = Get(key);
  if (v.empty()) return fallback;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0' || errno != 0)
    return Status::InvalidArgument("--" + key + " expects a number, got '" +
                                   v + "'");
  return value;
}

bool FlagParser::Has(const std::string& flag) const {
  return flags_.count(flag) > 0;
}

Status FlagParser::CheckKnown(const std::set<std::string>& known) const {
  std::set<std::string> passed = flags_;
  for (const auto& [name, value] : values_) passed.insert(name);
  for (const std::string& name : passed)
    if (known.count(name) == 0)
      return Status::InvalidArgument("unknown flag --" + name);
  return Status::OK();
}

}  // namespace dehealth
