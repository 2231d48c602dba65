// PERF-1 negative fixture: literal messages, a message that views an
// existing string, a `+` nested inside an index, and built messages
// behind a literal `false` condition (built only when they throw).
#include <string>
#include <vector>

#include "util/require.h"

void check(int n, const std::string& name,
           const std::vector<std::string>& names) {
  csca::require(n > 0, "size must be positive, and this message is long");
  csca::ensure(n < 100, names[static_cast<std::size_t>(n + 1)]);
  csca::require(!name.empty(), name);
  if (n == 7) csca::require(false, "unknown name: " + name);
  csca::ensure(false, std::to_string(n));
}
