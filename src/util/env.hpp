// Boolean environment switches, parsed one way everywhere.
#pragma once

#include <cstdlib>
#include <string_view>

namespace ltfb::util {

/// True when environment variable `name` is set to anything but the empty
/// string or "0".
inline bool env_flag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' &&
         std::string_view(value) != "0";
}

}  // namespace ltfb::util
