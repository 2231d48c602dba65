#include "util/require.h"

#include <string>

namespace csca::detail {

namespace {
std::string format(const char* kind, std::string_view message,
                   const std::source_location& where) {
  std::string out{kind};
  out += ": ";
  out += message;
  out += " [";
  out += where.file_name();
  out += ":";
  out += std::to_string(where.line());
  out += "]";
  return out;
}
}  // namespace

void throw_precondition(std::string_view message,
                        std::source_location where) {
  throw PreconditionError(format("precondition violated", message, where));
}

void throw_invariant(std::string_view message, std::source_location where) {
  throw InvariantError(format("invariant violated", message, where));
}

}  // namespace csca::detail
