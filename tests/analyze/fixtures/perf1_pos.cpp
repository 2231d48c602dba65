// PERF-1 positive fixture: require/ensure messages built at the call,
// so every passing call pays for the string too.
#include <sstream>
#include <string>

#include "util/require.h"

void check(int n, const std::string& name) {
  csca::require(n > 0, "bad size for " + name);
  csca::ensure(n < 100, std::to_string(n));
  csca::require(n != 7, std::string("seven: ").append(name));
  csca::ensure(n != 8,
               (std::ostringstream() << "eight " << n).str());
}
