// str_cat: concatenation by appends.
//
// GCC 12 at -O3 inlines `"literal" + std::to_string(x)` into a
// std::string::insert at offset 0 and then warns, falsely, that the
// memcpy it makes may overlap (-Wrestrict). Appending the parts in
// order builds the same bytes without that pattern.
#pragma once

#include <string>

namespace veridp {

template <class... Parts>
[[nodiscard]] std::string str_cat(const Parts&... parts) {
  std::string out;
  ((out += parts), ...);
  return out;
}

}  // namespace veridp
