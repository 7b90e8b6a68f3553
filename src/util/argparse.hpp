// Tiny command-line parser for examples and benchmark harnesses.
//
// Usage:
//   ArgParser args(argc, argv);
//   int n       = args.get<int>("n", 100000);        // --n=... or --n ...
//   double rmax = args.get<double>("rmax", 200.0);
//   bool rsd    = args.flag("rsd");                  // --rsd
//   args.finish();  // throws on unknown options
#pragma once

#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace galactos {

class ArgParser {
 public:
  ArgParser(int argc, char** argv);

  // Retrieves --name=<value> (or "--name <value>"); falls back to `def`.
  // The whole token must parse as a T: "12abc" and "3.7" for an int are
  // rejected, and so is a leading '-' for an unsigned T (the stream would
  // wrap "-5" to 2^64 - 5).
  template <typename T>
  T get(const std::string& name, T def) {
    used_.insert(name);
    auto it = kv_.find(name);
    if (it == kv_.end()) return def;
    const std::string& s = it->second;
    std::istringstream is(s);
    T v{};
    is >> v;
    const bool negative_unsigned =
        std::is_unsigned_v<T> && s.find('-') != std::string::npos;
    GLX_CHECK_MSG(!is.fail() && is.peek() == std::char_traits<char>::eof() &&
                      !negative_unsigned,
                  "bad value for --" << name << ": " << s);
    return v;
  }

  std::string get_str(const std::string& name, const std::string& def);
  bool flag(const std::string& name);
  bool has(const std::string& name) const;
  // Throws if any provided option was never queried (catches typos).
  void finish() const;

 private:
  std::map<std::string, std::string> kv_;
  std::set<std::string> flags_;
  std::set<std::string> used_;
};

}  // namespace galactos
