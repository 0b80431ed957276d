// Scoped environment overrides for tests that vary READDUO_* knobs within
// one process (the knobs are re-read on every use).
#pragma once

#include <cstdlib>
#include <string>

#include "common/env.h"

namespace rd {

/// Scoped environment-variable override; restores the old value on exit.
/// A null `value` unsets the variable for the scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = env_cstr(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

}  // namespace rd
