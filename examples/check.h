// The examples stop at the first call that fails: CHECK_OK(expr) prints the
// expression and its status and exits with status 1, so a smoke run of an
// example in CI fails instead of printing a plausible transcript.
#ifndef EXAMPLES_CHECK_H_
#define EXAMPLES_CHECK_H_

#include <cstdio>
#include <cstdlib>

#include "src/base/status.h"

namespace frangipani {
namespace examples {

inline Status StatusOf(const Status& st) { return st; }
template <typename T>
Status StatusOf(const StatusOr<T>& v) {
  return v.status();
}

inline void CheckOk(const Status& st, const char* expr, const char* file, int line) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s:%d: %s failed: %s\n", file, line, expr, st.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace examples
}  // namespace frangipani

#define CHECK_OK(expr) \
  ::frangipani::examples::CheckOk(::frangipani::examples::StatusOf(expr), #expr, __FILE__, __LINE__)

#endif  // EXAMPLES_CHECK_H_
